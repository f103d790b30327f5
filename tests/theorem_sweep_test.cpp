// Wide parameterized sweep of the paper's two theorems across topology
// families, sizes and seeds — the highest-level invariants of the system,
// checked in one place with the w.h.p. preconditions qualified the same
// way the proofs qualify them.
//
//   Theorem 1: first packets stretch ≤ 7, later packets ≤ 3 (w.h.p.).
//   Theorem 2: per-node state O(sqrt(n log n)) entries (data plane).
#include <gtest/gtest.h>

#include <cmath>

#include "core/disco.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"

namespace disco {
namespace {

struct SweepCase {
  int family;  // index into TopologyFamilies()
  NodeId n;
  std::uint64_t seed;
};

Graph MakeGraph(const SweepCase& c) {
  return MakeTopology(TopologyFamilies()[c.family], c.n, c.seed);
}

class TheoremSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {
 protected:
  SweepCase Case() const {
    return {std::get<0>(GetParam()),
            static_cast<NodeId>(std::get<1>(GetParam())),
            std::get<2>(GetParam())};
  }
};

TEST_P(TheoremSweep, Theorem1StretchBounds) {
  const SweepCase c = Case();
  const Graph g = MakeGraph(c);
  Params p;
  p.seed = c.seed;
  Disco disco(g, p);
  NdDisco& nd = disco.nd();

  auto qualifies = [&](NodeId v) {
    for (const NearNode& m : nd.vicinity(v)->members()) {
      if (nd.landmarks().Contains(m.node)) return true;
    }
    return false;
  };

  int checked = 0;
  for (NodeId s = 1; s < g.num_nodes(); s += g.num_nodes() / 7 + 1) {
    const auto truth = Dijkstra(g, s);
    for (NodeId t = 2; t < g.num_nodes(); t += g.num_nodes() / 11 + 3) {
      if (s == t || truth.dist[t] <= 0) continue;
      if (!qualifies(s) || !qualifies(t)) continue;
      const Route first = disco.RouteFirst(s, t, Shortcut::kNone);
      ASSERT_TRUE(first.ok());
      if (!first.via_fallback) {
        EXPECT_LE(first.length / truth.dist[t], 7.0 + 1e-9)
            << "family " << c.family << " " << s << "->" << t;
      }
      const Route later = disco.RouteLater(s, t, Shortcut::kNone);
      EXPECT_LE(later.length / truth.dist[t], 3.0 + 1e-9)
          << "family " << c.family << " " << s << "->" << t;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST_P(TheoremSweep, Theorem2StateBound) {
  const SweepCase c = Case();
  const Graph g = MakeGraph(c);
  Params p;
  p.seed = c.seed;
  Disco disco(g, p);

  const double n = static_cast<double>(g.num_nodes());
  const double sqrt_nlogn = std::sqrt(n * std::log(n));
  // Data-plane components: landmarks + vicinity (≈ 2*sqrt(n ln n)), labels
  // (≤ the same), sloppy group (≤ 2*sqrt(n)*log2(n)), resolution share and
  // overlay (small). A single generous constant covers all of them.
  const double bound =
      6.0 * sqrt_nlogn + 2.0 * std::sqrt(n) * std::log2(n) + 64;
  for (NodeId v = 0; v < g.num_nodes(); v += g.num_nodes() / 41 + 1) {
    EXPECT_LE(static_cast<double>(disco.State(v).total()), bound)
        << "family " << c.family << " node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesSizesSeeds, TheoremSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(256, 512, 1024),
                       ::testing::Values(101ull, 202ull)));

}  // namespace
}  // namespace disco
