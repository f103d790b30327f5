// Fig. 3: CDF over source-destination pairs of path stretch — Disco and S4,
// first packet and later packets — on the geometric-16384, AS-level and
// router-level topologies.
//
// Paper result: on the unweighted Internet maps all curves are bounded
// because hop-count ratios are; on the latency-annotated geometric graph
// S4's first packet reaches stretch ~72 (the resolution detour) while
// Disco's worst first packet stays near 2. Later packets are similar for
// both (S4 slightly ahead on the AS map, Disco ahead on random graphs).
#include "bench_common.h"

#include <cstdio>

#include "sim/metrics.h"

namespace disco::bench {
namespace {

void RunTopology(const char* name, const Graph& g, const Args& args) {
  std::printf("\n--- %s: n=%u, m=%zu ---\n", name, g.num_nodes(),
              g.num_edges());
  const auto schemes = MakeSchemesOrDie(args.SchemesOr({"disco", "s4"}), g,
                                        args.MakeParams());

  const PairSample pairs =
      SamplePairs(g, args.SamplesOr(args.quick ? 200 : 1000), args.seed);

  const auto run = [&](const std::string& label, const RouteFn& fn) {
    std::vector<StretchSample> details;
    auto stretch = SampleStretch(pairs, fn, &details);
    std::size_t failed = 0;
    for (const auto& d : details) failed += d.failed;
    PrintCdf(label, stretch,
             args.OutPath(std::string("fig03_") + name + "_" + label));
    if (failed > 0) std::printf("  (%zu routing failures)\n", failed);
  };
  for (const auto& scheme : schemes) {
    if (scheme->distinguishes_first_packet()) {
      run(scheme->label() + "-First", scheme->route_fn(api::Phase::kFirst));
      run(scheme->label() + "-Later", scheme->route_fn(api::Phase::kLater));
    } else {
      run(scheme->label(), scheme->route_fn(api::Phase::kLater));
    }
  }
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  Banner("Fig. 3 — path stretch, CDF over src-dest pairs",
         "Disco first-packet stretch ≤7 (tiny on geometric); S4 first "
         "packets heavy-tailed (up to ~72 with latencies); later packets "
         "comparable");
  RunTopology("geometric", MakeGeometric(args, 16384), args);
  RunTopology("aslevel", MakeAsLevel(args), args);
  RunTopology("routerlevel", MakeRouterLevel(args), args);
  return 0;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
