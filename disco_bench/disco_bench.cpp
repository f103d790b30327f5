// disco_bench — one repetition of one benchmark workload: route serving
// or the paper's evaluation job, measured end to end and per layer.
//
// The command, run from the repository root (run.py first builds this
// package with its own CMakeLists.txt into .bench_build/):
//
//   python3 disco_bench/run.py --workload <name> --seed <n>
//       --seconds <s> --trace <0|1>       one workload, one result line
//   python3 disco_bench/run.py --all --seed <n> --json <results.json>
//   python3 disco_bench/run.py --quick    toy sizes, every check, ~2 s
//   python3 disco_bench/run.py --compare <a.json> <b.json>
//       --bounds BENCHMARK.json
//
// run.py starts this binary once per repetition, each in a fresh process,
// until --seconds have passed (at least three untraced repetitions):
//
//   disco_bench --workload=<name> --seed=<n> [--store=<dir>]
//               [--trace=<file>] [--samples=<file>] [--quick]
//
// A repetition prints one JSON object on stdout (logs go to stderr) and
// writes the latency of every Disco route call to --samples. run.py takes
// medians over the repetitions, pools the latency samples, reads each
// repetition's peak RSS from wait4(2), checks every output, and prints the
// result line BENCHMARK.json describes. The seed drives the topology, the
// landmarks, the query streams and the audited pairs; the program sees
// only the generated inputs.
//
// Sized for 4 cores: a runtime pool of width 2 for construction and routes
// on one thread per process; the procs backend's 2 workers share that
// budget, one thread each, while the driver waits. Repetitions run one at
// a time. Routes run on one thread per process because with two, the
// shared caches' lock hand-offs between cores make routing throughput
// bimodal (about 2x faster whenever both threads share a CPU), which no
// run length steadies; the hit probes below measure that 2-thread path.
//
// Workloads. Serving is a closed loop: 64 client streams, each waiting for
// its reply before its next query.
//
//   serve-hot        ConnectedGnm n=1024, Disco later-packet routes, steady
//                    + flash phases, Zipf 0.99, hot set 8, 51200 queries.
//                    All state fits the caches, so the cache hit path
//                    dominates: locks, LRU splices, shared_ptr copies,
//                    per-stage vectors and RouteLater's extra RouteFirst.
//   serve-cold       ConnectedGnm n=16384, Disco first-packet routes with
//                    uniform destinations, 2048 queries. The vicinity
//                    working set is 4x VicinityCache's capacity, so
//                    truncated Dijkstras on the serve path dominate.
//   eval-cold        The evaluation job at ConnectedGnm n=2048 on the
//                    threads backend against a fresh, empty --store: build
//                    and prewarm disco, nddisco, s4, vrr and spf, collect
//                    per-node state, and route 64 sources x 32 destinations
//                    (first and later packets) per scheme as one exec task
//                    per (scheme, source), each checked against a Dijkstra
//                    oracle. Construction (VRR above all) and store writes
//                    dominate.
//   eval-warm-procs  The same job on the procs backend with 2 workers,
//                    against a store an untimed eval-cold run filled: the
//                    store is only read (zero landmark Dijkstras in the
//                    driver and in both workers), and worker replay, spawn
//                    and frame dispatch dominate the executor. Its result
//                    digest must equal eval-cold's byte for byte.
//
// End-to-end metrics (untraced repetitions; medians over repetitions,
// latency percentiles over the pooled samples; times are scaled to the
// speed reference, see TimeReference):
//
//   setup_s      s    graph generation, scheme construction and prewarm
//                     (serving also counts building the query streams)
//   job_s        s    set-up plus the measured phase (serving; or state
//                     collection and the route fan-out)
//   qps          1/s  route calls per second of the route phase
//                     (ServeWorkload, or Executor::Run, wall time)
//   lat_p50_us   us   median latency of one Disco route call
//   lat_p99_us   us   p99 of the same; every run pools over 10k samples
//   peak_rss_mb  MB   ru_maxrss of the repetition, procs workers included
//
// Per-layer metrics (traced repetitions, which alternate with untraced
// ones; "probe" values come from fixed work done after the job), and the
// end-to-end metric each should move, as metric@workload:
//
//   graph.generate_s         self time of graph.generate      setup_s@all
//   graph.knearest_us        probe: KNearest(k), 256 nodes    qps@serve-cold
//   graph.dijkstra_ms        probe: Dijkstra, 32 sources      setup_s@serve-cold
//   routing.prewarm_trees_s  nd().PrewarmLandmarkTrees()      setup_s@serve-cold
//   routing.prewarm_vicinities_s  nd().PrewarmVicinities(all) setup_s@eval-*
//   routing.vicinity_hit_ns  probe: 2 threads x 1e5 cached    qps@serve-hot
//   routing.tree_hit_ns        vicinity() / LandmarkTree()    qps@serve-hot
//   core.route_first_us      probe: Disco RouteFirst, 256     lat_p50_us@serve-cold
//   core.route_later_us        pairs; RouteLater, same pairs  lat_p50_us@serve-hot
//   core.direct_ratio, core.contact_ratio, core.fallback_ratio
//                            provenance of those first        lat_p99_us@serve-cold
//                            packets (fallback is the slow path)
//   core.stretch_mean, core.hops_mean
//                            audited routes (deterministic)   none: route quality
//   api.build_s              scheme constructors              setup_s@eval-*
//   api.prewarm_s            the whole prewarm phase          setup_s@all
//   store.tree_ms            busy ms per landmark tree        setup_s@eval-*
//                            (store.dijkstra/decode/writeback, every process)
//   store.tree_dijkstras, store.tree_store_hits, store.tree_writebacks
//                            registry deltas over the job,    setup_s@eval-*
//                            merged worker counters included
//   store.bytes_mb           size of --store after the job    setup_s@eval-cold
//   route.phase_s            the measured route phase         job_s@all
//   route.busy_frac          1-in-64 sampled core.route span  qps@all
//                            time x 64 / (phase x threads)
//   route.samples            pooled latency samples           (p99 support)
//   route.lat_p999_us        informational: with a 4 ms scheduler tick
//                            (HZ=250) it measures preemption, not routing
//   exec.roundtrip_us        probe: 2000 empty tasks, run     job_s@eval-warm-procs
//                            before the build (procs workers replay only
//                            graph generation)
//   exec.slot_idle_frac      1 - exec.task / (exec.run x 2)   job_s@eval-warm-procs
//   exec.dispatched, exec.retries  registry counters          job_s@eval-warm-procs
//   obs.span_coverage        bench.job's children over it     trace health
//   obs.dropped_events       trace buffer drops (must be 0)   trace health
//   obs.trace_overhead_frac  traced / untraced job_s - 1      trace health
//   obs.speed_scale          the factor times were scaled by  host speed
//   proc.invol_ctx_switches  getrusage over the job           lat_p99_us@serve-*
//   proc.minor_faults          (untraced repetitions)         setup_s@eval-cold
//
// Reading a traced run: --trace=<file> writes a Chrome trace_event file
// (open it in Perfetto, or summarize it with disco_tracecat); this binary
// also prints SummarizeTrace's per-span table on stderr, and run.py keeps
// the last one as .bench_build/last-trace-<workload>.json. The driver's
// spans nest as bench.job > {bench.setup > {graph.generate,
// api.build.<scheme>, api.prewarm > {routing.prewarm_*, api.prewarm.<scheme>},
// serve.build_streams}, api.collect_state, bench.route_phase >
// {serve.workload | exec.run.*}}; the probes follow under bench.probes.
// store.*, graph.*, exec.* and serve.workload spans come from inside the
// program, and procs workers' spans arrive as merged sidecars (their
// replayed set-up shows up there too).
//
// Correctness checks (a failed one is listed under "errors", and run.py
// then reports correct=false): every audited route has the right
// endpoints, consecutive hops that are edges, a length equal to the sum of
// its edge weights, and stretch within the paper's bound (Disco first <= 7,
// later <= 3; ND-Disco first <= 5, later <= 3; Path-vector = 1); no route
// fails; the warm store does zero landmark Dijkstras; the trace drops
// nothing and covers at least 90% of the job. run.py adds that every
// repetition, traced or not, reproduces the same deterministic outputs, and
// that eval-warm-procs reproduces eval-cold's digest.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "api/schemes.h"
#include "exec/executor.h"
#include "exec/wire.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/tracefile.h"
#include "routing/params.h"
#include "runtime/parallel_for.h"
#include "runtime/rng_stream.h"
#include "runtime/thread_pool.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "sim/metrics.h"
#include "store/artifact_store.h"
#include "util/json.h"
#include "util/sha256.h"

namespace disco::bench {
namespace {

constexpr int kThreads = 2;  // pool width, hit-probe threads, procs workers
constexpr std::size_t kStreams = 64;    // closed-loop client streams
constexpr std::uint64_t kAuditEvery = 64;
constexpr std::uint64_t kRouteSpanEvery = 64;
constexpr std::size_t kProbePairs = 256;
constexpr std::size_t kProbeKNearest = 256;
constexpr std::size_t kProbeDijkstras = 32;
constexpr std::size_t kProbeHitCalls = 100000;
constexpr std::size_t kProbeExecTasks = 2000;
constexpr std::size_t kEvalSources = 64;
constexpr std::size_t kEvalDests = 32;
// TaskRng fork ids of the benchmark's own samples, far from the streams.
constexpr std::uint64_t kEvalPairFork = 0xB0E5C0DEull;
constexpr std::uint64_t kProbePairFork = 0xB0E5C0DFull;
constexpr std::uint64_t kReferenceSeed = 0xB0E5C0E0ull;

volatile double g_reference_checksum = 0;

struct WorkloadDef {
  const char* name;
  bool eval;              // the evaluation job; otherwise route serving
  exec::Backend backend;  // executor of the job's fan-out and of the probe
  // Route-phase concurrency: serving threads, or executor slots (procs
  // workers, or the width of the threads backend's task pool).
  int slots;
  NodeId n, quick_n;
  // Serving only.
  api::Phase phase = api::Phase::kLater;
  double zipf = 0;
  bool flash = false;
  std::size_t queries_per_stream = 0;  // per phase
  std::size_t quick_queries_per_stream = 0;
};

// One routing thread per process; the header says why.
const WorkloadDef kWorkloads[] = {
    {"serve-hot", false, exec::Backend::kThreads, 1, 1024, 256,
     api::Phase::kLater, 0.99, true, 400, 40},
    {"serve-cold", false, exec::Backend::kThreads, 1, 16384, 512,
     api::Phase::kFirst, 0.0, false, 32, 20},
    {"eval-cold", true, exec::Backend::kThreads, 1, 2048, 256},
    {"eval-warm-procs", true, exec::Backend::kProcs, kThreads, 2048, 256},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Options {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 1;
  bool quick = false;
  std::string store;
  std::string trace;
  std::string samples;  // where the route-call latencies go
  std::vector<std::string> argv;  // verbatim, for procs workers
};

[[noreturn]] void Usage(int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: disco_bench --workload=<name> [--seed=<n>] [--store=<dir>]\n"
      "                   [--trace=<file>] [--samples=<file>] [--quick]\n"
      "Runs one repetition and prints its measurements as JSON; --samples\n"
      "receives every Disco route call's latency (native u64 ns).\n"
      "Workloads: serve-hot serve-cold eval-cold eval-warm-procs\n"
      "(run.py drives repetitions; see the header of disco_bench.cpp)\n");
  std::exit(code);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  o.argv.assign(argv, argv + argc);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    const auto uint_or_die = [&](const char* v) {
      char* end = nullptr;
      errno = 0;
      const unsigned long long x = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "bad number in %s\n", arg.c_str());
        Usage(2);
      }
      return x;
    };
    if (const char* v = value_of("--workload=")) {
      o.workload = FindWorkload(v);
      if (o.workload == nullptr) {
        std::fprintf(stderr, "unknown workload \"%s\"\n", v);
        Usage(2);
      }
    } else if (const char* v = value_of("--seed=")) {
      o.seed = uint_or_die(v);
    } else if (const char* v = value_of("--store=")) {
      std::string err;
      if (*v == '\0' || !store::OpenProcessStore(v, &err)) {
        std::fprintf(stderr, "cannot open store \"%s\": %s\n", v,
                     err.c_str());
        std::exit(2);
      }
      o.store = v;
    } else if (const char* v = value_of("--trace=")) {
      if (*v == '\0') Usage(2);
      o.trace = v;
    } else if (const char* v = value_of("--samples=")) {
      if (*v == '\0') Usage(2);
      o.samples = v;
    } else if (const char* v = value_of("--worker=")) {
      // A procs-backend worker: this argv plus --worker=<job>.
      exec::EnterWorkerMode(static_cast<std::size_t>(uint_or_die(v)));
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--help") {
      Usage(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(2);
    }
  }
  if (o.workload == nullptr) Usage(2);
  if (o.workload->eval && o.store.empty()) {
    std::fprintf(stderr, "%s needs --store=<dir>\n", o.workload->name);
    std::exit(2);
  }
  // Procs workers share the driver's budget of kThreads: one thread each.
  runtime::ThreadPool::ResetShared(exec::InWorkerMode() ? 1 : kThreads);
  // The registry series whose deltas the job reports; registering them
  // before any worker exposition is merged keeps worker counts too.
  (void)store::Counters();
  if (!o.trace.empty()) obs::ConfigureTracing(o.trace, std::size_t{1} << 16);
  return o;
}

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// The audited sample is keyed on (stream, query index) only, so it is the
// same for any thread count and any repetition.
bool Audited(std::uint64_t stream, std::uint64_t query) {
  return runtime::TaskRng(stream, query).Next() % kAuditEvery == 0;
}

// The job's executor: `slots` procs workers, or a task pool `slots` wide.
exec::ExecOptions ExecOptionsFor(const Options& o, runtime::ThreadPool* pool) {
  exec::ExecOptions eo;
  eo.backend = o.workload->backend;
  eo.workers = static_cast<std::size_t>(o.workload->slots);
  eo.worker_argv = o.argv;
  eo.pool = pool;
  return eo;
}

// In traced runs, every 64th route call per thread carries a core.route
// span: enough for per-call times without flooding the trace.
RouteFn SampledRouteSpans(RouteFn fn) {
  return [fn = std::move(fn)](NodeId s, NodeId t) {
    thread_local std::uint64_t calls = 0;
    if (++calls % kRouteSpanEvery != 0) return fn(s, t);
    obs::Span span("core.route");
    return fn(s, t);
  };
}

// The paper's stretch bound for a scheme's route phase; 0 = no bound.
double StretchBound(const std::string& scheme, api::Phase phase) {
  const bool first = phase == api::Phase::kFirst;
  if (scheme == "disco") return first ? 7 : 3;
  if (scheme == "nddisco") return first ? 5 : 3;
  if (scheme == "spf") return 1;
  return 0;
}

// One audited route, checked against the oracle distance `shortest`.
struct AuditTally {
  std::uint64_t routes = 0;
  std::uint64_t failed = 0;      // no route returned
  std::uint64_t invalid = 0;     // wrong endpoints, non-edge hop, bad length
  std::uint64_t violations = 0;  // stretch over the paper's bound
  double stretch_sum = 0;
  std::uint64_t hops = 0;

  void Add(const Graph& g, NodeId s, NodeId t, const Route& r,
           Dist shortest, double bound) {
    ++routes;
    if (!r.ok()) {
      ++failed;
      return;
    }
    const Dist walked = PathLength(g, r.path);
    if (r.path.front() != s || r.path.back() != t || walked >= kInfDist ||
        std::fabs(walked - r.length) > 1e-9 * std::max(1.0, walked)) {
      ++invalid;
      return;
    }
    const double stretch = StretchOf(r.length, shortest);
    if (bound > 0 && stretch > bound + 1e-9) ++violations;
    stretch_sum += stretch;
    hops += r.path.size() - 1;
  }

  void Merge(const AuditTally& o) {
    routes += o.routes;
    failed += o.failed;
    invalid += o.invalid;
    violations += o.violations;
    stretch_sum += o.stretch_sum;
    hops += o.hops;
  }
};

// The value of one series in a Prometheus exposition (0 when absent).
std::uint64_t SeriesValue(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > series.size() &&
        line.compare(0, series.size(), series) == 0 &&
        line[series.size()] == ' ') {
      return std::strtoull(line.c_str() + series.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

struct Counts {
  std::uint64_t dijkstras = 0, store_hits = 0, writebacks = 0;
  std::uint64_t dispatched = 0, retries = 0;

  static Counts Now() {
    const std::string text = obs::Global().PrometheusText();
    Counts c;
    c.dijkstras = SeriesValue(text, "disco_store_tree_dijkstras_total");
    c.store_hits = SeriesValue(text, "disco_store_tree_store_hits_total");
    c.writebacks = SeriesValue(text, "disco_store_tree_writebacks_total");
    c.dispatched =
        SeriesValue(text, "disco_exec_tasks_total{event=\"dispatched\"}");
    c.retries = SeriesValue(text, "disco_exec_tasks_total{event=\"retried\"}");
    return c;
  }
};

struct ProcUsage {
  std::uint64_t nivcsw = 0, minflt = 0;
  static ProcUsage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {static_cast<std::uint64_t>(ru.ru_nivcsw),
            static_cast<std::uint64_t>(ru.ru_minflt)};
  }
  ProcUsage Since(const ProcUsage& start) const {
    return {nivcsw - start.nivcsw, minflt - start.minflt};
  }
};

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

api::DiscoScheme& DiscoOf(
    const std::vector<std::unique_ptr<api::RoutingScheme>>& schemes) {
  for (const auto& s : schemes) {
    if (auto* d = dynamic_cast<api::DiscoScheme*>(s.get())) return *d;
  }
  std::fprintf(stderr, "no disco scheme built\n");
  std::exit(1);
}

// Everything one repetition measured; rendered as the stdout JSON.
struct RepResult {
  double setup_s = 0, job_s = 0, route_phase_s = 0;
  std::uint64_t routes = 0;  // route calls in the route phase
  std::uint64_t failed = 0;  // of those, the ones that returned no route
  std::vector<std::uint64_t> lat_ns;  // every Disco route call's duration
  AuditTally audit;
  std::string digest;  // deterministic outputs of the job
  std::vector<std::string> errors;
  Counts counts;    // deltas over the repetition
  ProcUsage usage;  // deltas over the job
  double store_mb = 0;
  std::uint64_t reference_ns = 0;  // the speed reference, before + after
  std::map<std::string, double> layers;  // traced runs only
};

// Times every call made through Wrap()'s function: per-thread sample
// vectors, no lock on the call path. Take() once the callers have joined.
class CallTimes {
 public:
  RouteFn Wrap(RouteFn fn) {
    return [this, fn = std::move(fn)](NodeId s, NodeId t) {
      thread_local std::pair<const CallTimes*, std::vector<std::uint64_t>*>
          mine{nullptr, nullptr};
      if (mine.first != this) mine = {this, Register()};
      const std::uint64_t t0 = obs::NowNs();
      Route r = fn(s, t);
      mine.second->push_back(obs::NowNs() - t0);
      return r;
    };
  }

  std::vector<std::uint64_t> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint64_t> all;
    for (const auto& v : per_thread_) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

 private:
  std::vector<std::uint64_t>* Register() {
    std::lock_guard<std::mutex> lock(mu_);
    per_thread_.emplace_back().reserve(std::size_t{1} << 16);
    return &per_thread_.back();
  }

  std::mutex mu_;
  std::deque<std::vector<std::uint64_t>> per_thread_;
};

// The speed reference: Dijkstra from 4 sources over a fixed random graph
// (16384 nodes, out-degree 8), written here rather than taken from the
// program, so no change to the program moves it. Returns its wall time.
// Repetitions time it before and after their job; run.py scales a run's
// times by it, so a host that runs slower for a while (other tenants,
// frequency) does not read as a slower program.
std::uint64_t TimeReference() {
  constexpr std::uint32_t kNodes = 1 << 14, kDegree = 8;
  std::vector<std::uint32_t> to(kNodes * kDegree);
  std::vector<double> weight(to.size());
  Rng rng(kReferenceSeed);
  for (std::size_t e = 0; e < to.size(); ++e) {
    to[e] = static_cast<std::uint32_t>(rng.NextBelow(kNodes));
    weight[e] = 1.0 + static_cast<double>(rng.NextBelow(8));
  }
  using Item = std::pair<double, std::uint32_t>;
  std::vector<double> dist(kNodes);
  double checksum = 0;
  const std::uint64_t t0 = obs::NowNs();
  for (std::uint32_t source = 0; source < 4; ++source) {
    std::fill(dist.begin(), dist.end(), kInfDist);
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    dist[source] = 0;
    heap.push({0.0, source});
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      for (std::uint32_t e = u * kDegree; e < (u + 1) * kDegree; ++e) {
        if (d + weight[e] < dist[to[e]]) {
          dist[to[e]] = d + weight[e];
          heap.push({dist[to[e]], to[e]});
        }
      }
    }
    for (const double d : dist) checksum += d < kInfDist ? d : 0;
  }
  const std::uint64_t elapsed = obs::NowNs() - t0;
  g_reference_checksum = checksum;  // keeps the loop from being elided
  return elapsed;
}

// ------------------------------------------------------------ set-up

struct Setup {
  Graph g;
  std::vector<std::unique_ptr<api::RoutingScheme>> schemes;
};

// A 2000-empty-task fan-out on the workload's executor: the source of
// exec.roundtrip_us. Traced runs issue it right after graph generation, so
// procs workers replay nothing else; it returns its wall time so the job's
// timers can leave it out.
std::uint64_t ExecRoundTripProbe(const Options& o) {
  const std::uint64_t t0 = obs::NowNs();
  {
    obs::Span span("probe.exec_roundtrip");
    runtime::ThreadPool pool(static_cast<std::size_t>(o.workload->slots));
    std::vector<std::string> out;
    const exec::RunResult r = exec::MakeExecutor(ExecOptionsFor(o, &pool))->Run(
        kProbeExecTasks, [](std::size_t) { return std::string(); }, &out);
    if (!r.ok) {
      std::fprintf(stderr, "exec probe failed: %s\n", r.error.c_str());
      std::exit(1);
    }
  }
  return obs::NowNs() - t0;
}

// Graph generation, scheme construction and prewarm: the shared part of
// every workload's set-up.
void BuildAndPrewarm(const Options& o, Setup* s, std::uint64_t* probe_ns) {
  const NodeId n = o.quick ? o.workload->quick_n : o.workload->n;
  s->g = ConnectedGnm(n, 4ull * n, o.seed);
  if (!o.trace.empty()) *probe_ns = ExecRoundTripProbe(o);

  Params p;
  p.seed = o.seed;
  {
    // One Disco serves both the disco and the nddisco views.
    obs::Span span("api.build.disco");
    s->schemes = api::MakeSchemes(
        o.workload->eval ? std::vector<std::string>{"disco", "nddisco"}
                         : std::vector<std::string>{"disco"},
        s->g, p);
  }
  if (o.workload->eval) {
    for (const std::string name : {"s4", "vrr", "spf"}) {
      obs::Span span(obs::InternName("api.build." + name));
      s->schemes.push_back(api::MakeScheme(name, s->g, p));
    }
  }

  obs::Span prewarm("api.prewarm");
  const std::vector<NodeId> all = s->schemes.front()->AllNodes();
  NdDisco& nd = DiscoOf(s->schemes).impl().nd();
  {
    obs::Span span("routing.prewarm_trees");
    nd.PrewarmLandmarkTrees();
  }
  {
    obs::Span span("routing.prewarm_vicinities");
    nd.PrewarmVicinities(all);
  }
  for (const auto& scheme : s->schemes) {
    if (scheme->name() == "disco" || scheme->name() == "nddisco") continue;
    obs::Span span(obs::InternName("api.prewarm." + scheme->name()));
    scheme->PrewarmFor(all);
  }
}

// ------------------------------------------------------------ serving

void RunServe(const Options& o, Setup* s, RepResult* out) {
  const WorkloadDef& w = *o.workload;
  serve::Workload workload;
  std::vector<std::vector<serve::Query>> streams;
  api::RoutingScheme* disco = nullptr;
  {
    const std::uint64_t job_start = obs::NowNs();
    const ProcUsage usage_start = ProcUsage::Now();
    std::uint64_t probe_ns = 0;
    obs::Span job("bench.job");
    {
      obs::Span setup("bench.setup");
      BuildAndPrewarm(o, s, &probe_ns);
      obs::Span span("serve.build_streams");
      serve::WorkloadSpec spec;
      spec.streams = kStreams;
      spec.queries_per_stream =
          o.quick ? w.quick_queries_per_stream : w.queries_per_stream;
      spec.zipf = w.zipf;
      spec.flash = w.flash;
      spec.hot_set = 8;
      workload = serve::Workload::Build(spec, s->g, o.seed);
      for (std::size_t i = 0; i < workload.streams(); ++i) {
        streams.push_back(workload.Stream(i));
      }
    }
    out->setup_s = Seconds(obs::NowNs() - job_start - probe_ns);

    disco = s->schemes.front().get();
    RouteFn route = disco->route_fn(w.phase);
    if (!o.trace.empty()) route = SampledRouteSpans(std::move(route));
    CallTimes times;
    route = times.Wrap(std::move(route));
    serve::ServeOptions so;
    so.threads = w.slots;
    serve::ServeResult r;
    {
      obs::Span span("bench.route_phase");
      r = serve::ServeWorkload(route, workload, streams, so);
    }
    out->route_phase_s = r.wall_seconds;
    out->routes = r.served;
    out->failed = r.failures;
    out->lat_ns = times.Take();
    out->job_s = Seconds(obs::NowNs() - job_start - probe_ns);
    out->usage = ProcUsage::Now().Since(usage_start);
  }

  // The audit re-routes the sampled queries outside the job. Schemes are
  // deterministic, so these are the routes that were served.
  std::vector<std::pair<NodeId, NodeId>> picks;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (std::size_t q = 0; q < streams[i].size(); ++q) {
      if (Audited(i, q)) picks.emplace_back(streams[i][q].src, streams[i][q].dst);
    }
  }
  std::vector<AuditTally> tallies(picks.size());
  const double bound = StretchBound(disco->name(), w.phase);
  const RouteFn plain = disco->route_fn(w.phase);
  runtime::ParallelForTasks(picks.size(), [&](std::size_t i) {
    const auto [a, b] = picks[i];
    tallies[i].Add(s->g, a, b, plain(a, b), Dijkstra(s->g, a).dist[b], bound);
  });
  for (const AuditTally& t : tallies) out->audit.Merge(t);
  char line[96];
  std::snprintf(line, sizeof line, "|%llu|%.17g|%llu",
                static_cast<unsigned long long>(out->audit.routes),
                out->audit.stretch_sum,
                static_cast<unsigned long long>(out->audit.hops));
  out->digest = Sha256HexOf(Sha256Hash(workload.FingerprintHex() + line));
}

// ------------------------------------------------------------ evaluation

// One task: scheme k routes source j to each of its destinations (first
// and later packets where the scheme distinguishes them). The payload is
// two wire strings — the deterministic route records, and the per-call
// route times, which vary run to run.
std::string EvalTask(const Setup& s, const std::vector<NodeId>& sources,
                     const std::vector<std::vector<NodeId>>& dests,
                     const std::vector<RouteFn>& fns, std::size_t i) {
  const std::size_t k = i / sources.size();
  const std::size_t j = i % sources.size();
  const NodeId src = sources[j];
  const ShortestPathTree oracle = Dijkstra(s.g, src);
  const int phases = s.schemes[k]->distinguishes_first_packet() ? 2 : 1;
  std::string det, times;
  for (const NodeId t : dests[j]) {
    for (int ph = 0; ph < phases; ++ph) {
      const RouteFn& fn = fns[2 * k + static_cast<std::size_t>(ph)];
      const std::uint64_t t0 = obs::NowNs();
      const Route r = fn(src, t);
      exec::PutU64(&times, obs::NowNs() - t0);
      exec::PutDouble(&det, oracle.dist[t]);
      exec::PutU64(&det, r.path.size());
      for (const NodeId v : r.path) exec::PutU64(&det, v);
      exec::PutDouble(&det, r.length);
    }
  }
  std::string payload;
  exec::PutString(&payload, det);
  exec::PutString(&payload, times);
  return payload;
}

void RunEval(const Options& o, Setup* s, RepResult* out) {
  std::vector<NodeId> sources;
  std::vector<std::vector<NodeId>> dests;
  std::vector<std::string> results;
  Sha256 digest;
  {
    const std::uint64_t job_start = obs::NowNs();
    const ProcUsage usage_start = ProcUsage::Now();
    std::uint64_t probe_ns = 0;
    obs::Span job("bench.job");
    {
      obs::Span setup("bench.setup");
      BuildAndPrewarm(o, s, &probe_ns);
    }
    out->setup_s = Seconds(obs::NowNs() - job_start - probe_ns);

    // Per-node state, the Õ(sqrt n) claim. Driver only: workers replay
    // this code path just to reach the fan-out.
    if (!exec::InWorkerMode()) {
      obs::Span span("api.collect_state");
      for (const auto& scheme : s->schemes) {
        const std::vector<double> state = scheme->CollectState();
        double sum = 0, max = 0;
        for (const double v : state) {
          sum += v;
          max = std::max(max, v);
        }
        char line[128];
        std::snprintf(line, sizeof line, "%s:%.17g:%.17g|",
                      scheme->name().c_str(), sum, max);
        digest.Update(std::string(line));
        std::fprintf(stderr, "[state] %-8s max=%g mean=%.2f entries/node\n",
                     scheme->name().c_str(), max,
                     sum / static_cast<double>(state.size()));
      }
    }

    const NodeId n = s->g.num_nodes();
    sources = SampleNodes(n, kEvalSources, o.seed ^ kEvalPairFork);
    dests.resize(sources.size());
    for (std::size_t j = 0; j < sources.size(); ++j) {
      Rng rng = runtime::TaskRng(o.seed, kEvalPairFork + j);
      while (dests[j].size() < kEvalDests) {
        const NodeId t = static_cast<NodeId>(rng.NextBelow(n));
        if (t != sources[j]) dests[j].push_back(t);
      }
    }
    std::vector<RouteFn> fns;
    for (const auto& scheme : s->schemes) {
      for (const api::Phase ph : {api::Phase::kFirst, api::Phase::kLater}) {
        RouteFn fn = scheme->route_fn(ph);
        fns.push_back(o.trace.empty() ? std::move(fn)
                                      : SampledRouteSpans(std::move(fn)));
      }
    }

    runtime::ThreadPool pool(static_cast<std::size_t>(o.workload->slots));
    const std::uint64_t t0 = obs::NowNs();
    {
      obs::Span span("bench.route_phase");
      const exec::RunResult r = exec::MakeExecutor(ExecOptionsFor(o, &pool))->Run(
          s->schemes.size() * sources.size(),
          [&](std::size_t i) { return EvalTask(*s, sources, dests, fns, i); },
          &results);
      if (!r.ok) {
        out->errors.push_back("exec: " + r.error);
        return;
      }
    }
    out->route_phase_s = Seconds(obs::NowNs() - t0);
    out->job_s = Seconds(obs::NowNs() - job_start - probe_ns);
    out->usage = ProcUsage::Now().Since(usage_start);
  }

  // Check every route of the fan-out against its oracle distance.
  const NodeId n = s->g.num_nodes();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::size_t k = i / sources.size();
    const std::size_t j = i % sources.size();
    const api::RoutingScheme& scheme = *s->schemes[k];
    exec::WireReader outer(results[i]);
    std::string det, times;
    if (!outer.GetString(&det) || !outer.GetString(&times)) {
      out->errors.push_back("eval: malformed task payload");
      return;
    }
    digest.Update(det);
    exec::WireReader tr(times);
    for (std::uint64_t ns = 0; tr.GetU64(&ns);) {
      if (scheme.name() == "disco") out->lat_ns.push_back(ns);
      ++out->routes;
    }
    exec::WireReader dr(det);
    const int phases = scheme.distinguishes_first_packet() ? 2 : 1;
    for (const NodeId t : dests[j]) {
      for (int ph = 0; ph < phases; ++ph) {
        double shortest = 0;
        std::uint64_t hops = 0;
        Route r;
        bool ok = dr.GetDouble(&shortest) && dr.GetU64(&hops) && hops <= n;
        for (std::uint64_t h = 0; ok && h < hops; ++h) {
          std::uint64_t v = 0;
          ok = dr.GetU64(&v) && v < n;
          r.path.push_back(static_cast<NodeId>(v));
        }
        if (!ok || !dr.GetDouble(&r.length)) {
          out->errors.push_back("eval: malformed route record");
          return;
        }
        if (!r.ok()) ++out->failed;
        const api::Phase phase =
            ph == 0 ? api::Phase::kFirst : api::Phase::kLater;
        out->audit.Add(s->g, sources[j], t, r, shortest,
                       StretchBound(scheme.name(), phase));
      }
    }
  }
  out->digest = Sha256HexOf(digest.Finalize());
}

// ------------------------------------------------------------ probes

// The traced run's layer probes, after the job. Each runs under its own
// span; RepResult::layers reads them back from the trace.
void RunProbes(const Options& o, const Setup& s, RepResult* out) {
  obs::Span probes("bench.probes");
  const Graph& g = s.g;
  const NodeId n = g.num_nodes();
  Disco& disco = DiscoOf(s.schemes).impl();
  NdDisco& nd = disco.nd();
  const std::vector<NodeId> nodes = SampleNodes(n, kProbeKNearest, o.seed);
  {
    obs::Span span("probe.knearest");
    const std::size_t k = VicinitySize(n);
    for (const NodeId v : nodes) (void)KNearest(g, v, k);
  }
  {
    obs::Span span("probe.dijkstra");
    for (std::size_t i = 0; i < kProbeDijkstras; ++i) {
      (void)Dijkstra(g, nodes[i]);
    }
  }

  // Cached lookups from two threads at once: the shared caches' hit path.
  const std::vector<NodeId> hot(nodes.begin(), nodes.begin() + 64);
  const std::vector<NodeId>& landmarks = nd.landmarks().landmarks;
  for (const NodeId v : hot) (void)nd.vicinity(v);
  const auto hammer = [&](const char* name, const auto& call) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        obs::Span span(name);
        for (std::size_t i = 0; i < kProbeHitCalls; ++i) {
          call(static_cast<std::size_t>(t) * 7919 + i);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  };
  hammer("probe.vicinity_hit",
         [&](std::size_t i) { (void)nd.vicinity(hot[i % hot.size()]); });
  hammer("probe.tree_hit", [&](std::size_t i) {
    (void)nd.LandmarkTree(landmarks[i % landmarks.size()]);
  });

  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng rng = runtime::TaskRng(o.seed, kProbePairFork);
  while (pairs.size() < kProbePairs) {
    const NodeId a = static_cast<NodeId>(rng.NextBelow(n));
    const NodeId b = static_cast<NodeId>(rng.NextBelow(n));
    if (a != b) pairs.emplace_back(a, b);
  }
  double direct = 0, contact = 0, fallback = 0;
  {
    obs::Span span("probe.route_first");
    for (const auto& [a, b] : pairs) {
      const Route r = disco.RouteFirst(a, b);
      if (r.via_fallback) {
        ++fallback;
      } else if (r.contact != kInvalidNode) {
        ++contact;
      } else {
        ++direct;
      }
    }
  }
  {
    obs::Span span("probe.route_later");
    for (const auto& [a, b] : pairs) (void)disco.RouteLater(a, b);
  }
  out->layers["core.direct_ratio"] = direct / kProbePairs;
  out->layers["core.contact_ratio"] = contact / kProbePairs;
  out->layers["core.fallback_ratio"] = fallback / kProbePairs;
}

// ------------------------------------------------------------ trace

struct SpanStat {
  std::uint64_t count = 0, total_ns = 0, self_ns = 0;
};

bool LoadTrace(const std::string& path, obs::TraceDoc* doc,
               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  return obs::ParseTraceJson(text.str(), doc, error);
}

// Per-name span counts, durations and self times over the trace's
// processes — all of them, or only `pid` when it is nonzero — plus the
// time bench.job's direct children cover.
std::map<std::string, SpanStat> SpanTable(const obs::TraceDoc& doc,
                                          std::uint64_t pid,
                                          std::uint64_t* job_children_ns) {
  struct Open {
    std::string name;
    std::uint64_t begin = 0, child_ns = 0;
  };
  std::map<std::string, SpanStat> spans;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Open>> stacks;
  for (const obs::TraceEvent& e : doc.events) {
    if (pid != 0 && e.pid != pid) continue;
    std::vector<Open>& stack = stacks[{e.pid, e.tid}];
    if (e.phase == 'B') {
      stack.push_back({e.name, e.ts_ns, 0});
      continue;
    }
    if (e.phase != 'E' || stack.empty()) continue;
    const Open open = std::move(stack.back());
    stack.pop_back();
    const std::uint64_t dur = e.ts_ns - std::min(e.ts_ns, open.begin);
    SpanStat& st = spans[open.name];
    ++st.count;
    st.total_ns += dur;
    st.self_ns += dur - std::min(dur, open.child_ns);
    if (!stack.empty()) {
      stack.back().child_ns += dur;
      if (stack.back().name == "bench.job") *job_children_ns += dur;
    }
  }
  return spans;
}

// The per-layer values of a traced repetition. Spans the driver wraps
// around its own calls are read from this process only (procs workers
// replay the set-up); route, task and store spans from every process.
void AddTraceLayers(const obs::TraceDoc& doc, const WorkloadDef& w,
                    RepResult* out) {
  const double slots = w.slots;
  std::uint64_t job_children_ns = 0, ignored = 0;
  const std::map<std::string, SpanStat> driver = SpanTable(
      doc, static_cast<std::uint64_t>(getpid()), &job_children_ns);
  const std::map<std::string, SpanStat> all = SpanTable(doc, 0, &ignored);
  const auto find = [](const std::map<std::string, SpanStat>& spans,
                        const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanStat{} : it->second;
  };
  const auto stat = [&](const std::string& name) { return find(driver, name); };
  const auto stat_all = [&](const std::string& name) {
    return find(all, name);
  };
  const auto per = [](std::uint64_t ns, double ops, double unit_ns) {
    return ops > 0 ? static_cast<double>(ns) / ops / unit_ns : 0.0;
  };
  std::uint64_t build_ns = 0, exec_run_ns = 0;
  for (const auto& [name, st] : driver) {
    if (name.compare(0, 10, "api.build.") == 0) build_ns += st.total_ns;
    if (name.compare(0, 9, "exec.run.") == 0) exec_run_ns += st.total_ns;
  }
  const SpanStat dij = stat_all("store.dijkstra");
  const SpanStat dec = stat_all("store.decode");
  const double route_phase_ns =
      static_cast<double>(stat("bench.route_phase").total_ns);
  std::map<std::string, double>& l = out->layers;
  l["graph.generate_s"] = Seconds(stat("graph.generate").self_ns);
  l["graph.knearest_us"] =
      per(stat("probe.knearest").total_ns, kProbeKNearest, 1e3);
  l["graph.dijkstra_ms"] =
      per(stat("probe.dijkstra").total_ns, kProbeDijkstras, 1e6);
  l["routing.prewarm_trees_s"] = Seconds(stat("routing.prewarm_trees").total_ns);
  l["routing.prewarm_vicinities_s"] =
      Seconds(stat("routing.prewarm_vicinities").total_ns);
  const SpanStat vhit = stat("probe.vicinity_hit"), thit = stat("probe.tree_hit");
  l["routing.vicinity_hit_ns"] =
      per(vhit.total_ns, static_cast<double>(vhit.count) * kProbeHitCalls, 1);
  l["routing.tree_hit_ns"] =
      per(thit.total_ns, static_cast<double>(thit.count) * kProbeHitCalls, 1);
  l["core.route_first_us"] =
      per(stat("probe.route_first").total_ns, kProbePairs, 1e3);
  l["core.route_later_us"] =
      per(stat("probe.route_later").total_ns, kProbePairs, 1e3);
  l["api.build_s"] = Seconds(build_ns);
  l["api.prewarm_s"] = Seconds(stat("api.prewarm").total_ns);
  l["store.tree_ms"] =
      per(dij.self_ns + dec.self_ns + stat_all("store.writeback").self_ns,
          static_cast<double>(dij.count + dec.count), 1e6);
  l["route.phase_s"] = Seconds(stat("bench.route_phase").total_ns);
  l["route.busy_frac"] =
      route_phase_ns > 0
          ? static_cast<double>(stat_all("core.route").self_ns) *
                kRouteSpanEvery / (route_phase_ns * slots)
          : 0.0;
  l["exec.roundtrip_us"] =
      per(stat("probe.exec_roundtrip").total_ns, kProbeExecTasks, 1e3);
  l["exec.slot_idle_frac"] =
      exec_run_ns > 0 ? 1.0 - static_cast<double>(stat_all("exec.task").total_ns) /
                                  (static_cast<double>(exec_run_ns) * slots)
                      : 0.0;
  const double job_ns = static_cast<double>(stat("bench.job").total_ns);
  l["obs.span_coverage"] =
      job_ns > 0 ? static_cast<double>(job_children_ns) / job_ns : 0.0;
  l["obs.dropped_events"] = static_cast<double>(doc.dropped);
}

// ------------------------------------------------------------ output

json::Value Num(double v) { return json::Value::Number(v); }

std::string RenderJson(const RepResult& r) {
  const auto count = [](std::uint64_t v) {
    return json::Value::Number(static_cast<double>(v));
  };
  const double audited = static_cast<double>(r.audit.routes);
  json::Value root = json::Value::Object();
  root.Set("setup_s", Num(r.setup_s));
  root.Set("job_s", Num(r.job_s));
  root.Set("route_phase_s", Num(r.route_phase_s));
  root.Set("routes", count(r.routes));
  root.Set("failed", count(r.failed));
  root.Set("audited", count(r.audit.routes));
  root.Set("stretch_mean", Num(audited > 0 ? r.audit.stretch_sum / audited : 0));
  root.Set("hops_mean",
           Num(audited > 0 ? static_cast<double>(r.audit.hops) / audited : 0));
  root.Set("digest", json::Value::Str(r.digest));
  root.Set("tree_dijkstras", count(r.counts.dijkstras));
  root.Set("tree_store_hits", count(r.counts.store_hits));
  root.Set("tree_writebacks", count(r.counts.writebacks));
  root.Set("exec_dispatched", count(r.counts.dispatched));
  root.Set("exec_retries", count(r.counts.retries));
  root.Set("store_bytes_mb", Num(r.store_mb));
  root.Set("reference_ns", count(r.reference_ns));
  root.Set("invol_ctx_switches", count(r.usage.nivcsw));
  root.Set("minor_faults", count(r.usage.minflt));
  json::Value layers = json::Value::Object();
  for (const auto& [name, v] : r.layers) layers.Set(name, Num(v));
  root.Set("layers", std::move(layers));
  json::Value errors = json::Value::Array();
  for (const std::string& e : r.errors) errors.Push(json::Value::Str(e));
  root.Set("errors", std::move(errors));
  return root.Dump();
}

int Main(int argc, char** argv) {
  const Options o = ParseOptions(argc, argv);
  Setup s;
  RepResult r;
  const std::uint64_t reference_ns = TimeReference();
  const Counts c0 = Counts::Now();
  if (o.workload->eval) {
    RunEval(o, &s, &r);
  } else {
    RunServe(o, &s, &r);
  }
  const Counts c1 = Counts::Now();
  r.reference_ns = reference_ns + TimeReference();
  r.counts = {c1.dijkstras - c0.dijkstras, c1.store_hits - c0.store_hits,
              c1.writebacks - c0.writebacks, c1.dispatched - c0.dispatched,
              c1.retries - c0.retries};
  if (!o.store.empty()) {
    r.store_mb = static_cast<double>(DirectoryBytes(o.store)) / (1 << 20);
  }

  if (r.failed != 0) {
    r.errors.push_back(std::to_string(r.failed) + " routes failed");
  }
  if (r.audit.failed + r.audit.invalid + r.audit.violations != 0) {
    r.errors.push_back(
        "audit: " + std::to_string(r.audit.failed) + " failed, " +
        std::to_string(r.audit.invalid) + " invalid, " +
        std::to_string(r.audit.violations) + " over the stretch bound");
  }
  if (o.workload->backend == exec::Backend::kProcs && r.counts.dijkstras != 0) {
    r.errors.push_back("warm store: " + std::to_string(r.counts.dijkstras) +
                       " landmark Dijkstras (driver + workers), want 0");
  }
  if (!o.trace.empty()) {
    RunProbes(o, s, &r);
    obs::FlushTrace();
    obs::TraceDoc doc;
    std::string error;
    if (!LoadTrace(o.trace, &doc, &error)) {
      r.errors.push_back("trace: " + error);
    } else {
      std::fputs(obs::SummarizeTrace(doc).c_str(), stderr);
      AddTraceLayers(doc, *o.workload, &r);
      if (doc.dropped != 0) {
        r.errors.push_back("trace: " + std::to_string(doc.dropped) +
                           " events dropped");
      }
      if (r.layers["obs.span_coverage"] < 0.9) {
        r.errors.push_back("trace: spans cover less than 90% of the job");
      }
    }
  }
  if (!o.samples.empty()) {
    std::FILE* f = std::fopen(o.samples.c_str(), "wb");
    const bool ok =
        f != nullptr &&
        std::fwrite(r.lat_ns.data(), sizeof(std::uint64_t), r.lat_ns.size(),
                    f) == r.lat_ns.size();
    if (f == nullptr || std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "cannot write %s\n", o.samples.c_str());
      return 1;
    }
  }
  std::fputs(RenderJson(r).c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
