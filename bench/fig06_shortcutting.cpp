// Fig. 6 (table): mean first-packet stretch for each shortcutting heuristic
// of §4.2, across the AS-level, router-level, geometric-16384 and gnm-16384
// topologies.
//
// Paper result (rows top to bottom): stretch falls monotonically from "No
// Shortcutting" (1.3–1.4 on Internet maps) through "No Path Knowledge"
// (the default, ~1.1–1.15) down to "Using Path Knowledge" (~1.01), with
// the geometric graph close to 1 throughout.
#include "bench_common.h"

#include "core/disco.h"

#include <cstdio>

#include "sim/metrics.h"
#include "util/stats.h"

namespace disco::bench {
namespace {

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  Banner("Fig. 6 — mean first-packet stretch per shortcutting heuristic",
         "monotone improvement: none > to-dest > no-path-knowledge > "
         "up-down-stream ≳ path-knowledge (≈1.0)");

  struct Topo {
    const char* name;
    Graph graph;
  };
  std::vector<Topo> topologies;
  topologies.push_back({"AS-Level", MakeAsLevel(args)});
  topologies.push_back({"Router-level", MakeRouterLevel(args)});
  topologies.push_back({"Geometric-16384", MakeGeometric(args, 16384)});
  topologies.push_back({"GNM-16384", MakeGnm(args, 16384)});

  const std::size_t pairs = args.SamplesOr(args.quick ? 100 : 400);
  std::vector<std::pair<std::string, std::vector<double>>> rows;
  for (const Shortcut mode : kAllShortcuts) {
    rows.emplace_back(ShortcutName(mode), std::vector<double>{});
  }

  std::vector<std::string> columns;
  for (auto& topo : topologies) {
    columns.push_back(topo.name);
    std::printf("computing %s (n=%u)...\n", topo.name,
                topo.graph.num_nodes());
    Params p;
    p.seed = args.seed;
    // Fig. 6 varies the heuristics of §4.2, i.e. on the name-dependent
    // protocol's first packets (the destination's address is known; the
    // sloppy-group detour is orthogonal to shortcutting).
    NdDisco nd(topo.graph, p);
    const PairSample sample = SamplePairs(topo.graph, pairs, args.seed);
    std::size_t row = 0;
    for (const Shortcut mode : kAllShortcuts) {
      const auto stretch = SampleStretch(
          sample,
          [&](NodeId s, NodeId t) { return nd.RouteFirst(s, t, mode); });
      rows[row++].second.push_back(Summarize(stretch).mean);
    }
  }

  PrintTable("mean first-packet stretch", columns, rows);
  std::printf("\npaper values (row x column): No Shortcutting 1.40/1.30/"
              "1.05/1.35; No Path Knowledge 1.15/1.09/1.00/1.18; Using Path "
              "Knowledge 1.01/1.02/1.00/1.16\n");
  return 0;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
