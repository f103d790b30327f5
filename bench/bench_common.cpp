#include "bench_common.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "exec/net_daemon.h"
#include "exec/wire.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "sim/metrics.h"
#include "store/artifact_store.h"

namespace disco::bench {
namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ",";
    out += n;
  }
  return out;
}

[[noreturn]] void PrintUsageAndExit(const char* prog, const char* extra_usage,
                                    int code) {
  std::FILE* to = code == 0 ? stdout : stderr;
  std::fprintf(
      to,
      "usage: %s [flags]\n"
      "  --n=<int>        override the default topology size\n"
      "  --seed=<int>     experiment seed (default 1)\n"
      "  --samples=<int>  sampled pairs/nodes\n"
      "  --gbits=<int>    sloppy-group bits offset\n"
      "  --schemes=<a,b>  comma-separated schemes (registered: %s)\n"
      "  --out=<dir>      directory for TSV output (default: cwd)\n"
      "  --threads=<int>  thread-pool width (default: DISCO_THREADS env,\n"
      "                   else hardware concurrency)\n"
      "  --backend=<b>    execution backend for multi-task fan-outs\n"
      "                   (disco_sweep, fig04/05, fig09): threads\n"
      "                   (default, in-process), procs (worker pool), or\n"
      "                   net (disco_workerd daemons; needs --hosts=)\n"
      "  --workers=<int>  worker subprocesses for --backend=procs\n"
      "                   (default: one per hardware thread)\n"
      "  --hosts=<a,b>    comma-separated host:port disco_workerd\n"
      "                   endpoints for --backend=net (one worker slot\n"
      "                   per entry; repeat an entry for more slots)\n"
      "  --store=<dir>    artifact store with prebuilt landmark trees\n"
      "                   (prebuild with disco_store; wall-clock only)\n"
      "  --trace=<file>   write a Chrome trace_event timeline of the run\n"
      "                   (open in Perfetto; stdout/TSVs are unchanged)\n"
      "  --worker=<job>   internal: serve one executor job as a worker\n"
      "  --full           run at the paper's full scale\n"
      "  --quick          shrink everything (CI smoke scale)\n"
      "  --help           this message\n%s",
      prog, JoinNames(api::RegisteredSchemes()).c_str(),
      extra_usage != nullptr ? extra_usage : "");
  std::exit(code);
}

// Registered via atexit when --store= is given: the unified registry dump
// ("[metrics] store trees: ...", "[metrics] graph sources: ..."). Goes to
// stderr so stdout (and therefore store vs storeless byte-identity) is
// untouched. Counters are process-local, but backends that farm work out
// to other processes fold worker counters back in at drain time (the kObs
// goodbye frame, src/exec/wire.h) — the dump's note says which of the two
// it is, so a "dijkstra=0" line is never silently missing worker Dijkstras
// that were merely done elsewhere. Workers themselves stay silent to keep
// procs runs from interleaving one dump per worker.
bool g_store_run_uses_procs = false;

void DumpMetricsAtExit() {
  if (exec::InWorkerMode()) return;
  std::string note;
  if (g_store_run_uses_procs) {
    const std::size_t merged = obs::Global().MergedSourceCount();
    note = merged == 0
               ? "driver process only; workers keep their own"
               : "aggregated over driver + " + std::to_string(merged) +
                     " worker process(es)";
  }
  std::fputs(obs::Global().DumpText(note).c_str(), stderr);
}

}  // namespace

Args Args::Parse(int argc, char** argv, const char* extra_usage,
                 const ExtraFlag& extra) {
  Args a;
  a.raw_argv.assign(argv, argv + argc);
  if (std::getenv("REPRO_FULL") != nullptr) a.full = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    // Numeric values are parsed strictly: "--n=10x", "--n=" or
    // "--seed=abc" must be a usage error, never a silent garbage value
    // (strtoull without an end check yields 0, which reads as "use the
    // per-bench default").
    const auto uint_or_die = [&](const char* v, const char* flag)
        -> unsigned long long {
      char* end = nullptr;
      errno = 0;  // reject overflow too, not just trailing garbage
      const unsigned long long x = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "%s needs a non-negative integer, got "
                             "\"%s\"\n", flag, v);
        PrintUsageAndExit(argv[0], extra_usage, 2);
      }
      return x;
    };
    if (const char* v = value_of("--n=")) {
      a.n = static_cast<NodeId>(uint_or_die(v, "--n"));
    } else if (const char* v = value_of("--seed=")) {
      a.seed = uint_or_die(v, "--seed");
    } else if (const char* v = value_of("--samples=")) {
      a.samples = static_cast<std::size_t>(uint_or_die(v, "--samples"));
    } else if (const char* v = value_of("--gbits=")) {
      char* end = nullptr;
      const long b = std::strtol(v, &end, 10);
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "--gbits needs an integer, got \"%s\"\n", v);
        PrintUsageAndExit(argv[0], extra_usage, 2);
      }
      a.gbits = static_cast<int>(b);
    } else if (const char* v = value_of("--threads=")) {
      char* end = nullptr;
      const long t = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || t <= 0) {
        std::fprintf(stderr, "--threads needs a positive integer, got "
                             "\"%s\"\n", v);
        PrintUsageAndExit(argv[0], extra_usage, 2);
      }
      a.threads = static_cast<int>(t);
    } else if (const char* v = value_of("--backend=")) {
      if (!exec::ParseBackend(v, &a.backend)) {
        std::fprintf(stderr, "--backend must be \"threads\", \"procs\" or "
                             "\"net\", got \"%s\"\n", v);
        PrintUsageAndExit(argv[0], extra_usage, 2);
      }
    } else if (const char* v = value_of("--hosts=")) {
      a.hosts.clear();
      std::string spec;
      for (const char* p = v;; ++p) {
        if (*p == ',' || *p == '\0') {
          std::string host;
          int port = 0;
          if (!exec::ParseHostPort(spec, &host, &port)) {
            std::fprintf(stderr, "--hosts entry \"%s\" is not host:port\n",
                         spec.c_str());
            PrintUsageAndExit(argv[0], extra_usage, 2);
          }
          a.hosts.push_back(spec);
          spec.clear();
          if (*p == '\0') break;
        } else {
          spec.push_back(*p);
        }
      }
    } else if (const char* v = value_of("--workers=")) {
      char* end = nullptr;
      const unsigned long long w = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || w == 0) {
        std::fprintf(stderr, "--workers needs a positive integer, got "
                             "\"%s\"\n", v);
        PrintUsageAndExit(argv[0], extra_usage, 2);
      }
      a.workers = static_cast<std::size_t>(w);
    } else if (const char* v = value_of("--worker=")) {
      // Internal: this process was spawned by a driver's process executor
      // to serve one Run call (see src/exec/executor.h).
      char* end = nullptr;
      const unsigned long long job = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "--worker needs a job number, got \"%s\"\n",
                     v);
        std::exit(2);
      }
      exec::EnterWorkerMode(static_cast<std::size_t>(job));
    } else if (const char* v = value_of("--trace=")) {
      if (*v == '\0') {
        std::fprintf(stderr, "--trace needs a file path\n");
        PrintUsageAndExit(argv[0], extra_usage, 2);
      }
      a.trace = v;
    } else if (const char* v = value_of("--out=")) {
      a.out = v;
    } else if (const char* v = value_of("--store=")) {
      std::string err;
      if (*v == '\0' || !store::OpenProcessStore(v, &err)) {
        std::fprintf(stderr, "cannot open --store directory \"%s\"%s%s\n", v,
                     err.empty() ? "" : ": ", err.c_str());
        std::exit(2);
      }
      if (a.store.empty()) {
        // Touch the tier counters now so their groups hold the dump's
        // first two slots (store trees, then graph sources — the lines
        // the smoke scripts grep) and so worker Prometheus text merged
        // during executor drain finds every series already registered.
        (void)store::Counters();
        (void)GraphLoadCounters();
        std::atexit(DumpMetricsAtExit);
      }
      a.store = v;
    } else if (const char* v = value_of("--schemes=")) {
      a.schemes = api::SplitSchemeList(v);
      if (a.schemes.empty()) {
        std::fprintf(stderr, "--schemes needs at least one name\n");
        PrintUsageAndExit(argv[0], extra_usage, 2);
      }
      for (const std::string& s : a.schemes) {
        if (!api::IsRegisteredScheme(s)) {
          std::fprintf(stderr, "unknown scheme \"%s\" (registered: %s)\n",
                       s.c_str(),
                       JoinNames(api::RegisteredSchemes()).c_str());
          std::exit(2);
        }
      }
    } else if (arg == "--full") {
      a.full = true;
    } else if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--help") {
      PrintUsageAndExit(argv[0], extra_usage, 0);
    } else if (extra != nullptr && extra(arg)) {
      // consumed by the bench-specific handler
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsageAndExit(argv[0], extra_usage, 2);
    }
  }
  if (!a.out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(a.out, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --out directory %s: %s\n",
                   a.out.c_str(), ec.message().c_str());
      std::exit(2);
    }
  }
  if (a.threads > 0) {
    runtime::ThreadPool::ResetShared(static_cast<std::size_t>(a.threads));
  }
  if (a.backend == exec::Backend::kNet && a.hosts.empty() &&
      !exec::InWorkerMode()) {
    std::fprintf(stderr, "--backend=net needs --hosts=host:port,...\n");
    PrintUsageAndExit(argv[0], extra_usage, 2);
  }
  // Store/graph counters are process-local; any backend that farms work
  // out to other processes (local workers or remote daemons) leaves the
  // driver's numbers covering only itself until worker goodbyes merge in.
  if (!a.store.empty() && a.backend != exec::Backend::kThreads) {
    g_store_run_uses_procs = true;
  }
  if (!a.trace.empty()) {
    // Workers re-parse this argv, see the same --trace=, and (having
    // entered worker mode above) flush pid-tagged sidecars instead of
    // the merged file.
    obs::ConfigureTracing(a.trace);
  }
  return a;
}

exec::ExecOptions Args::MakeExecOptions(runtime::ThreadPool* pool) const {
  exec::ExecOptions opts;
  opts.backend = backend;
  opts.workers = workers;
  opts.hosts = hosts;
  opts.worker_argv = raw_argv;
  opts.pool = pool;
  return opts;
}

std::string Args::OutPath(const std::string& name) const {
  if (out.empty()) return name;
  return out + "/" + name;
}

const char* CampaignArgs::Usage() {
  return "  --replicas=<r>   independent seeded DES replicas (default 1)\n"
         "  --scenario=<s>   dynamics scenario: null (default), churn,\n"
         "                   linkfail, correlated, partition\n"
         "  --scn-events=<k>   disturbance events per scenario\n"
         "  --scn-fraction=<f> fraction of nodes/links hit per event\n"
         "  --scn-start=<t>    sim time of the first disturbance\n"
         "  --scn-spacing=<t>  disturbance -> recovery spacing\n"
         "  --scn-noheal       leave the final disturbance unhealed\n";
}

bool CampaignArgs::Consume(const std::string& arg) {
  const auto value_of = [&arg](const char* prefix) -> const char* {
    const std::size_t len = std::strlen(prefix);
    return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
  };
  const auto die = [&](const char* what) {
    std::fprintf(stderr, "%s in %s\n", what, arg.c_str());
    std::exit(2);
  };
  if (const char* v = value_of("--replicas=")) {
    char* end = nullptr;
    const unsigned long long r = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0' || r == 0) die("invalid replica count");
    replicas = static_cast<std::size_t>(r);
    return true;
  }
  if (const char* v = value_of("--scenario=")) {
    if (!IsScenarioKind(v)) {
      std::fprintf(stderr,
                   "unknown scenario \"%s\" (known: null, churn, linkfail, "
                   "correlated, partition)\n",
                   v);
      std::exit(2);
    }
    scenario.kind = v;
    return true;
  }
  if (const char* v = value_of("--scn-events=")) {
    char* end = nullptr;
    const unsigned long long k = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0') die("invalid event count");
    scenario.events = static_cast<std::size_t>(k);
    return true;
  }
  if (const char* v = value_of("--scn-fraction=")) {
    char* end = nullptr;
    const double f = std::strtod(v, &end);
    if (end == v || *end != '\0' || f <= 0 || f > 1) {
      die("invalid fraction (need 0 < f <= 1)");
    }
    scenario.fraction = f;
    return true;
  }
  if (const char* v = value_of("--scn-start=")) {
    char* end = nullptr;
    const double t = std::strtod(v, &end);
    if (end == v || *end != '\0' || t < 0) die("invalid start time");
    scenario.start = t;
    return true;
  }
  if (const char* v = value_of("--scn-spacing=")) {
    char* end = nullptr;
    const double t = std::strtod(v, &end);
    // The spacing must exceed the maximum link delay (1.5) or a message
    // could be in flight across two disturbances at once.
    if (end == v || *end != '\0' || t <= 1.5) {
      die("invalid spacing (need > 1.5, the max link delay)");
    }
    scenario.spacing = t;
    return true;
  }
  if (arg == "--scn-noheal") {
    scenario.heal = false;
    return true;
  }
  return false;
}

void WriteFileOrWarn(const std::string& path, const std::string& contents) {
  if (!WriteFile(path, contents)) {
    obs::Log(obs::LogLevel::kWarn, "failed to write %s", path.c_str());
  }
}

void Banner(const std::string& figure, const std::string& expectation) {
  std::printf("==============================================================="
              "=\n%s\npaper expectation: %s\n"
              "================================================================"
              "\n",
              figure.c_str(), expectation.c_str());
}

std::uint64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" SCNu64 " kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

namespace {

// "%-28s" without snprintf's buffer limit: labels longer than the column
// (e.g. a long custom-registered scheme) must widen the line, never be
// truncated.
std::string PaddedLabel(const std::string& label) {
  std::string out = label;
  if (out.size() < 28) out.append(28 - out.size(), ' ');
  return out;
}

}  // namespace

std::string CdfLine(const std::string& label, std::vector<double> values) {
  if (values.empty()) return PaddedLabel(label) + " (no data)\n";
  std::sort(values.begin(), values.end());
  std::string line = PaddedLabel(label);
  char buf[64];
  static const double kQ[] = {0.01, 0.05, 0.10, 0.25, 0.50,
                              0.75, 0.90, 0.95, 0.99, 1.00};
  for (const double q : kQ) {
    std::snprintf(buf, sizeof buf, " p%02.0f=%-9.4g", q * 100,
                  Percentile(values, q));
    line += buf;
  }
  line += "\n";
  return line;
}

std::string SummaryLine(const std::string& label,
                        std::vector<double> values) {
  const Summary s = Summarize(std::move(values));
  char buf[128];
  std::snprintf(buf, sizeof buf,
                " count=%-7zu mean=%-10.4g p50=%-10.4g p95=%-10.4g "
                "max=%-10.4g\n",
                s.count, s.mean, s.p50, s.p95, s.max);
  return PaddedLabel(label) + buf;
}

std::string CdfTsvContent(std::vector<double> values) {
  return CdfToCsv(Cdf(std::move(values), 256));
}

void PrintCdf(const std::string& label, std::vector<double> values,
              const std::string& file) {
  const bool have_data = !values.empty();
  std::string tsv;
  if (have_data && !file.empty()) tsv = CdfTsvContent(values);
  std::fputs(CdfLine(label, std::move(values)).c_str(), stdout);
  if (have_data && !file.empty()) WriteFileOrWarn(file + ".tsv", tsv);
}

void PrintSummary(const std::string& label, std::vector<double> values) {
  std::fputs(SummaryLine(label, std::move(values)).c_str(), stdout);
}

void PrintTable(const std::string& title,
                const std::vector<std::string>& columns,
                const std::vector<std::pair<std::string,
                                            std::vector<double>>>& rows) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-38s", "");
  for (const auto& c : columns) std::printf("%-16s", c.c_str());
  std::printf("\n");
  for (const auto& [name, vals] : rows) {
    std::printf("%-38s", name.c_str());
    for (const double v : vals) std::printf("%-16.4g", v);
    std::printf("\n");
  }
}

Graph MakeAsLevel(const Args& args) {
  const NodeId n = args.NOr(args.quick ? 4096 : 30610);
  return AsLevelInternet(n, args.seed);
}

Graph MakeRouterLevel(const Args& args) {
  const NodeId n =
      args.NOr(args.full ? 192244 : (args.quick ? 4096 : 32768));
  return RouterLevelInternet(n, args.seed);
}

Graph MakeGeometric(const Args& args, NodeId def_n) {
  return ConnectedGeometric(args.NOr(args.quick ? 2048 : def_n), 8.0,
                            args.seed);
}

Graph MakeGnm(const Args& args, NodeId def_n) {
  const NodeId n = args.NOr(args.quick ? 2048 : def_n);
  return ConnectedGnm(n, 4ull * n, args.seed);
}

bool IsGraphFingerprint(const std::string& s) {
  return s.size() == 64 &&
         s.find_first_not_of("0123456789abcdef") == std::string::npos;
}

store::ArtifactKey GraphSnapshotKey(const std::string& graph_fp) {
  store::ArtifactKey key;
  key.kind = "graph";
  key.graph = graph_fp;
  key.scope = "snapshot";
  key.version = 2;
  return key;
}

std::optional<Graph> LoadStoredGraph(const std::string& graph_fp) {
  store::ArtifactStore* const st = store::ProcessStore();
  if (st == nullptr) return std::nullopt;
  std::shared_ptr<store::ArtifactReader> reader =
      st->Open(GraphSnapshotKey(graph_fp));
  if (reader == nullptr || reader->frame_count() < 1) return std::nullopt;
  const Span<const std::uint8_t> frame = reader->frame(0);
  const Span<const char> bytes(reinterpret_cast<const char*>(frame.data()),
                               frame.size());
  // The reader (an open mmap of the object file) becomes the graph's
  // backing: the frame is viewed in place, no copy, no decode.
  return ViewGraphSnapshot(reader, bytes);
}

std::vector<std::string> RunTasksOrDie(
    const Args& args, std::size_t count, const exec::TaskFn& fn,
    runtime::ThreadPool* pool,
    const std::function<std::string(std::size_t)>& label) {
  DISCO_TRACE_SPAN("bench.run_tasks");
  const auto executor = exec::MakeExecutor(args.MakeExecOptions(pool));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(count, fn, &results);
  if (!status.ok) {
    if (status.task_known && label != nullptr) {
      std::fprintf(stderr, "execution failed at %s: %s\n",
                   label(status.failed_task).c_str(),
                   status.error.c_str());
    } else {
      std::fprintf(stderr, "execution failed: %s\n", status.error.c_str());
    }
    std::exit(1);
  }
  return results;
}

std::vector<std::unique_ptr<api::RoutingScheme>> MakeSchemesOrDie(
    const std::vector<std::string>& names, const Graph& g, const Params& p) {
  auto schemes = api::MakeSchemes(names, g, p);
  if (schemes.empty()) {
    std::fprintf(stderr, "unknown scheme in {%s} (registered: %s)\n",
                 JoinNames(names).c_str(),
                 JoinNames(api::RegisteredSchemes()).c_str());
    std::exit(2);
  }
  return schemes;
}

void RunThousandNodeComparison(const std::string& tag, const Graph& g,
                               const Args& args) {
  std::printf("\ntopology: n=%u, m=%zu\n", g.num_nodes(), g.num_edges());
  const Params p = args.MakeParams();
  const std::vector<std::string> names =
      args.SchemesOr({"disco", "nddisco", "s4", "vrr", "spf"});

  // One executor task per scheme: each measures the three panels and
  // returns the print-ready fragments plus TSV contents as a TextBundle —
  // the parent process assembles them in panel order, so stdout and the
  // files are byte-identical across backends and worker counts. On the
  // in-process path the schemes are batch-built up front (MakeSchemes
  // shares substructure, e.g. one Disco behind the disco/nddisco views);
  // a worker process instead builds only the scheme its task names —
  // that independence is what lets the procs backend spread schemes
  // across workers. Both constructions are deterministic, so the numbers
  // agree.
  // Bundle parts: [0] state CDF line, [1] state summary line, [2] stretch
  // CDF lines, [3] congestion CDF + summary lines.
  const bool in_process =
      args.backend == exec::Backend::kThreads && !exec::InWorkerMode();
  std::vector<std::unique_ptr<api::RoutingScheme>> prebuilt;
  if (in_process) {
    prebuilt = MakeSchemesOrDie(names, g, p);
    // The measurements route from every node and toward most landmarks,
    // so the whole converged working set will be needed; bulk-compute it
    // over the pool up front rather than faulting it in per route.
    for (const auto& s : prebuilt) s->PrewarmFor(s->AllNodes());
  }
  const exec::TaskFn task = [&](std::size_t i) {
    // Span named after the scheme so the timeline shows which scheme each
    // worker spent its time on (names interned: they must outlive flush).
    obs::Span scheme_span(obs::InternName("bench.scheme." + names[i]));
    std::unique_ptr<api::RoutingScheme> own;
    if (!in_process) {
      own = api::MakeScheme(names[i], g, p);
      if (own == nullptr) {
        throw std::runtime_error("unknown scheme \"" + names[i] + "\"");
      }
      own->PrewarmFor(own->AllNodes());
    }
    api::RoutingScheme* const scheme =
        in_process ? prebuilt[i].get() : own.get();
    exec::TextBundle bundle;

    // Like PrintCdf, an empty sample prints "(no data)" and writes no
    // file — a header-only TSV would read as a real (empty) curve.
    const std::vector<double> state = scheme->CollectState();
    bundle.parts.push_back(CdfLine(scheme->label(), state));
    bundle.parts.push_back(SummaryLine(scheme->label(), state));
    if (!state.empty()) {
      bundle.files.emplace_back(
          args.OutPath(tag + "_state_" + scheme->name()) + ".tsv",
          CdfTsvContent(state));
    }

    StretchOptions opt;
    opt.num_pairs = args.SamplesOr(args.quick ? 300 : 2000);
    opt.seed = args.seed;
    std::string stretch_text;
    const auto add_stretch = [&](const std::string& label,
                                 const RouteFn& fn) {
      const std::vector<double> values = SampleStretch(g, fn, opt);
      stretch_text += CdfLine(label, values);
      if (!values.empty()) {
        bundle.files.emplace_back(
            args.OutPath(tag + "_stretch_" + label) + ".tsv",
            CdfTsvContent(values));
      }
    };
    if (scheme->distinguishes_first_packet()) {
      add_stretch(scheme->label() + "-First",
                  scheme->route_fn(api::Phase::kFirst));
      add_stretch(scheme->label() + "-Later",
                  scheme->route_fn(api::Phase::kLater));
    } else {
      add_stretch(scheme->label(), scheme->route_fn(api::Phase::kLater));
    }
    bundle.parts.push_back(stretch_text);

    const auto counts =
        CongestionCounts(g, scheme->route_fn(api::Phase::kLater), args.seed);
    const std::vector<double> vals(counts.begin(), counts.end());
    bundle.parts.push_back(CdfLine(scheme->label(), vals) +
                           SummaryLine("  " + scheme->label(), vals));
    if (!vals.empty()) {
      bundle.files.emplace_back(
          args.OutPath(tag + "_congestion_" + scheme->label()) + ".tsv",
          CdfTsvContent(vals));
    }
    return bundle.Serialize();
  };

  const std::vector<std::string> raw = RunTasksOrDie(
      args, names.size(), task, nullptr,
      [&](std::size_t i) { return "scheme \"" + names[i] + "\""; });
  std::vector<exec::TextBundle> bundles(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (!exec::TextBundle::Parse(raw[i], &bundles[i]) ||
        bundles[i].parts.size() != 4) {
      std::fprintf(stderr, "malformed result bundle for scheme %s\n",
                   names[i].c_str());
      std::exit(1);
    }
  }

  std::printf("\n[state: entries per node, CDF over nodes]\n");
  for (const auto& b : bundles) std::fputs(b.parts[0].c_str(), stdout);
  for (const auto& b : bundles) std::fputs(b.parts[1].c_str(), stdout);

  std::printf("\n[stretch: CDF over src-dest pairs]\n");
  for (const auto& b : bundles) std::fputs(b.parts[2].c_str(), stdout);

  std::printf("\n[congestion: routes crossing each edge, CDF over edges; "
              "one random destination per node]\n");
  for (const auto& b : bundles) std::fputs(b.parts[3].c_str(), stdout);

  for (const auto& b : bundles) {
    for (const auto& [name, content] : b.files) {
      WriteFileOrWarn(name, content);
    }
  }
}

}  // namespace disco::bench
