// disco_serve — the online half of the paper: route-*serving* under load.
//
// Every other bench is an offline batch job; this one prewarms the
// selected schemes (from the artifact store when --store= is given, so a
// warm start does zero landmark Dijkstras) and then drives a heavy
// concurrent query workload against each scheme's route function:
// per-thread closed loops over deterministic per-stream TaskRng streams,
// Zipf-distributed destinations, and optional flash-crowd and churn
// phases (the churn departed set is compiled by the PR 4 scenario layer).
// Per-query latency lands in lock-free per-thread histograms merged at
// the end; live totals tick in the metrics registry (obs/metrics.h).
//
// The query stream — destinations, phase schedule, per-stream failure
// counts — is byte-identical across thread counts and runs
// (--dump-stream= writes it for comparison; serve_smoke cmp's it), so
// correctness is checkable even though timings are not. Results go to
// stdout as an aligned table (per-scheme qps/mean/p50/p95/p99/p999).
// The recorded, compared perf numbers come from disco_bench/run.py.
#include "bench_common.h"

#include <cstdio>
#include <cstring>

#include "obs/trace.h"
#include "serve/server.h"
#include "serve/workload.h"

namespace disco::bench {
namespace {

constexpr const char* kExtraUsage =
    "  --queries=<q>      queries per stream per phase (default 2000,\n"
    "                     --quick 250, --full 20000)\n"
    "  --streams=<k>      logical client streams, decoupled from threads\n"
    "                     (default 64, --quick 16)\n"
    "  --zipf=<s>         Zipf skew of the destination popularity\n"
    "                     (default 0.99; 0 = uniform)\n"
    "  --flash            add a flash-crowd phase (hot-set collapse)\n"
    "  --hot=<k>          flash-crowd hot-set size (default 8)\n"
    "  --churn            add a churn phase (scenario-compiled departed\n"
    "                     set; queries to departed nodes fail)\n"
    "  --dump-stream=<f>  write the deterministic query stream and\n"
    "                     per-stream failure tallies to <f> (byte-stable\n"
    "                     across runs and thread counts)\n";

struct ServeArgs {
  serve::WorkloadSpec spec;
  bool queries_set = false;
  bool streams_set = false;
  std::string dump_path;

  bool Consume(const std::string& arg) {
    const auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len
                                              : nullptr;
    };
    const auto die = [&](const char* what) {
      std::fprintf(stderr, "%s in %s\n", what, arg.c_str());
      std::exit(2);
    };
    const auto uint_value = [&](const char* v, const char* what) {
      std::size_t x = 0;
      if (!ParseInt(v, &x) || x == 0) die(what);
      return x;
    };
    if (const char* v = value_of("--queries=")) {
      spec.queries_per_stream = uint_value(v, "invalid query count");
      queries_set = true;
      return true;
    }
    if (const char* v = value_of("--streams=")) {
      spec.streams = uint_value(v, "invalid stream count");
      streams_set = true;
      return true;
    }
    if (const char* v = value_of("--zipf=")) {
      char* end = nullptr;
      const double s = std::strtod(v, &end);
      if (end == v || *end != '\0' || s < 0) die("invalid zipf skew");
      spec.zipf = s;
      return true;
    }
    if (const char* v = value_of("--hot=")) {
      spec.hot_set = uint_value(v, "invalid hot-set size");
      return true;
    }
    if (const char* v = value_of("--dump-stream=")) {
      dump_path = v;
      return true;
    }
    if (arg == "--flash") {
      spec.flash = true;
      return true;
    }
    if (arg == "--churn") {
      spec.churn = true;
      return true;
    }
    return false;
  }
};

int Main(int argc, char** argv) {
  ServeArgs serve_args;
  const Args args = Args::Parse(argc, argv, kExtraUsage,
                                [&](const std::string& arg) {
                                  return serve_args.Consume(arg);
                                });
  if (!serve_args.queries_set) {
    serve_args.spec.queries_per_stream =
        args.quick ? 250 : (args.full ? 20000 : 2000);
  }
  if (!serve_args.streams_set) {
    serve_args.spec.streams = args.quick ? 16 : 64;
  }
  Banner("Route serving — throughput and tail latency under load",
         "compact schemes answer queries at memory speed after prewarm; "
         "flash crowds stress the tail, churn adds deterministic failures");

  const Graph g = MakeGnm(args, 1024);
  std::printf("topology: n=%u, m=%zu\n", g.num_nodes(), g.num_edges());

  const serve::Workload workload =
      serve::Workload::Build(serve_args.spec, g, args.seed);
  std::string phase_names;
  for (const serve::PhaseKind p : workload.phases()) {
    if (!phase_names.empty()) phase_names += ",";
    phase_names += serve::PhaseName(p);
  }
  const std::string fingerprint = workload.FingerprintHex();
  std::printf("workload: %zu streams x %zu queries (%s), zipf=%g, "
              "sha256=%.16s…\n",
              workload.streams(), workload.queries_per_stream(),
              phase_names.c_str(), serve_args.spec.zipf,
              fingerprint.c_str());

  // Pregenerate every stream once: synthesis stays off the measured path
  // and the same immutable streams drive every scheme.
  std::vector<std::vector<serve::Query>> streams;
  streams.reserve(workload.streams());
  for (std::size_t s = 0; s < workload.streams(); ++s) {
    streams.push_back(workload.Stream(s));
  }

  const Params p = args.MakeParams();
  const std::vector<std::string> names =
      args.SchemesOr({"disco", "nddisco", "s4", "vrr", "spf"});
  auto schemes = MakeSchemesOrDie(names, g, p);
  {
    DISCO_TRACE_SPAN("serve.prewarm");
    for (const auto& scheme : schemes) {
      scheme->PrewarmFor(scheme->AllNodes());
    }
  }

  serve::ServeOptions opts;
  opts.threads = args.threads;

  std::vector<std::pair<std::string, std::vector<double>>> rows;
  std::vector<serve::ServeResult> results;
  for (const auto& scheme : schemes) {
    obs::Span run_span(obs::InternName("serve.run." + scheme->name()));
    serve::ServeResult r = serve::ServeWorkload(
        scheme->route_fn(api::Phase::kLater), workload, streams, opts);
    rows.emplace_back(
        scheme->label(),
        std::vector<double>{
            r.qps(), r.latency.mean_ns() / 1e3,
            static_cast<double>(r.latency.ValueAtQuantile(0.50)) / 1e3,
            static_cast<double>(r.latency.ValueAtQuantile(0.95)) / 1e3,
            static_cast<double>(r.latency.ValueAtQuantile(0.99)) / 1e3,
            static_cast<double>(r.latency.ValueAtQuantile(0.999)) / 1e3,
            static_cast<double>(r.failures)});
    results.push_back(std::move(r));
  }

  PrintTable("[route serving: closed-loop throughput and latency "
             "(microseconds); failures are deterministic]",
             {"qps", "mean_us", "p50_us", "p95_us", "p99_us", "p999_us",
              "failures"},
             rows);

  // The deterministic artifact: the full query stream plus per-scheme
  // per-stream tallies — byte-identical across runs and thread counts.
  if (!serve_args.dump_path.empty()) {
    std::string dump = "# workload sha256=" + fingerprint + "\n";
    dump += workload.DumpTsv();
    dump += "# scheme\tstream\tserved\tfailures\n";
    char line[128];
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const serve::ServeResult& r = results[i];
      for (std::size_t s = 0; s < workload.streams(); ++s) {
        std::snprintf(line, sizeof line, "%s\t%zu\t%llu\t%llu\n",
                      schemes[i]->name().c_str(), s,
                      static_cast<unsigned long long>(r.stream_served[s]),
                      static_cast<unsigned long long>(
                          r.stream_failures[s]));
        dump += line;
      }
    }
    WriteFileOrWarn(serve_args.dump_path, dump);
  }
  return 0;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
