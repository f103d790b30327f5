// Fig. 10: congestion on the AS-level Internet topology — CDF over edges of
// the number of routes crossing each edge when every (sampled) node routes
// to one random destination; Disco vs shortest-path routing vs S4.
//
// Paper result: the curves are indistinguishable until the very top of the
// distribution; a small fraction (~0.05%) of edges near landmarks carry
// noticeably more load under Disco than under shortest-path routing.
#include "bench_common.h"

#include <algorithm>
#include <cstdio>

#include "sim/metrics.h"
#include "util/rng.h"

namespace disco::bench {
namespace {

// CongestionCounts routes one packet per source node; to keep the default
// run fast on the 30k-node map we sample sources (§5.1's methodology) by
// restricting to a random subset and scaling the comparison jointly.
std::vector<std::size_t> SampledCongestion(const Graph& g,
                                           const RouteFn& route,
                                           std::size_t sources,
                                           std::uint64_t seed) {
  std::vector<std::size_t> counts(g.num_edges(), 0);
  Rng rng(seed ^ 0xf16c049e5710ULL);
  for (std::size_t i = 0; i < sources; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBelow(g.num_nodes()));
    NodeId t = s;
    while (t == s) t = static_cast<NodeId>(rng.NextBelow(g.num_nodes()));
    const Route r = route(s, t);
    for (std::size_t h = 0; h + 1 < r.path.size(); ++h) {
      if (const auto arc = g.CheapestArc(r.path[h], r.path[h + 1])) {
        ++counts[arc->edge];
      }
    }
  }
  return counts;
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  Banner("Fig. 10 — congestion CDF over edges, AS-level topology",
         "curves coincide except the top ~0.05% of edges, where Disco "
         "exceeds shortest-path routing");
  const Graph g = MakeAsLevel(args);
  std::printf("topology: n=%u, m=%zu\n", g.num_nodes(), g.num_edges());

  const auto schemes = MakeSchemesOrDie(
      args.SchemesOr({"disco", "spf", "s4"}), g, args.MakeParams());

  const std::size_t sources =
      args.SamplesOr(args.quick ? 1000 : std::min<std::size_t>(
                                             g.num_nodes(), 8000));
  for (const auto& scheme : schemes) {
    const auto counts = SampledCongestion(
        g, scheme->route_fn(api::Phase::kLater), sources, args.seed);
    std::vector<double> vals(counts.begin(), counts.end());
    PrintCdf(scheme->label(), vals,
             args.OutPath("fig10_" + scheme->label()));
    // The action is in the extreme tail; print it explicitly.
    std::sort(vals.begin(), vals.end());
    std::printf("  top edges: p99.9=%.0f p99.95=%.0f max=%.0f\n",
                Percentile(vals, 0.999), Percentile(vals, 0.9995),
                vals.back());
  }
  return 0;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
