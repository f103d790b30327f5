// Ablation of the design constants behind the paper's Θ(·) choices (Params
// in routing/params.h), swept one at a time on a 4,096-node G(n,m) graph:
//
//   vicinity_factor      scales k = f*sqrt(n ln n). Larger vicinities cut
//                        first-packet stretch (better contacts, more
//                        shortcut opportunities) and raise state linearly.
//   landmark_prob_factor scales p = f*sqrt(ln n / n). More landmarks mean
//                        shorter explicit-route addresses and shorter
//                        s ; l_t detours, at more landmark-table state.
//   group_bits_offset    the "+O(1)" of §4.5. Each +1 halves sloppy-group
//                        state but thins the vicinity∩group margin that
//                        first-packet routing relies on (fallback rate).
#include "bench_common.h"

#include "core/disco.h"

#include <atomic>
#include <cstdio>

#include "sim/metrics.h"

namespace disco::bench {
namespace {

struct Cell {
  double mean_first = 0;
  double max_first = 0;
  double mean_later = 0;
  double mean_state = 0;
  double fallback_rate = 0;
};

Cell Evaluate(const Graph& g, const Params& p, const PairSample& pairs) {
  Disco disco(g, p);

  // SampleStretch routes from pool threads, so the tallies are atomic.
  std::atomic<std::size_t> fallbacks{0}, total{0};
  const auto first = SampleStretch(pairs, [&](NodeId s, NodeId t) {
    const Route r = disco.RouteFirst(s, t);
    ++total;
    if (r.via_fallback) ++fallbacks;
    return r;
  });
  const auto later = SampleStretch(
      pairs, [&](NodeId s, NodeId t) { return disco.RouteLater(s, t); });

  double state = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    state += static_cast<double>(disco.State(v).total());
  }

  Cell c;
  const Summary fs = Summarize(first);
  c.mean_first = fs.mean;
  c.max_first = fs.max;
  c.mean_later = Summarize(later).mean;
  c.mean_state = state / g.num_nodes();
  c.fallback_rate = total == 0 ? 0
                               : static_cast<double>(fallbacks.load()) /
                                     static_cast<double>(total.load());
  return c;
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  Banner("ablation — the design constants behind the Θ(·) choices",
         "bigger vicinities: less stretch, more state; more landmarks: "
         "shorter detours; +1 group bit: half the group state, thinner "
         "contact margin");
  const Graph g = MakeGnm(args, 4096);
  std::printf("topology: n=%u, m=%zu\n", g.num_nodes(), g.num_edges());
  // One sample for every row: the rows differ only in Params.
  const PairSample pairs =
      SamplePairs(g, args.SamplesOr(args.quick ? 150 : 600), args.seed);

  const std::vector<std::string> cols = {"stretch1.mean", "stretch1.max",
                                         "stretchN.mean", "state.mean",
                                         "fallback"};
  std::vector<std::pair<std::string, std::vector<double>>> rows;
  auto add_row = [&](const std::string& name, const Params& p) {
    const Cell c = Evaluate(g, p, pairs);
    rows.emplace_back(name,
                      std::vector<double>{c.mean_first, c.max_first,
                                          c.mean_later, c.mean_state,
                                          c.fallback_rate});
  };

  for (const double f : {0.5, 1.0, 2.0}) {
    Params p = args.MakeParams();
    p.vicinity_factor = f;
    add_row("vicinity_factor=" + std::to_string(f).substr(0, 3), p);
  }
  for (const double f : {0.5, 1.0, 2.0}) {
    Params p = args.MakeParams();
    p.landmark_prob_factor = f;
    add_row("landmark_prob_factor=" + std::to_string(f).substr(0, 3), p);
  }
  for (const int b : {0, 1, 2, 3}) {
    Params p = args.MakeParams();
    p.group_bits_offset = b;
    add_row("group_bits_offset=" + std::to_string(b), p);
  }

  PrintTable("one-at-a-time ablation (gnm-4096, Disco)", cols, rows);
  return 0;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
