// Cross-protocol route-validity properties: every route any protocol emits
// must be a physically realizable walk with correct endpoints, finite
// length consistent with its hop weights, and stretch ≥ 1. These are the
// invariants the stretch/congestion measurements silently rely on, so they
// get their own exhaustive sweep across protocols, topologies and seeds.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/s4.h"
#include "baselines/spf.h"
#include "baselines/vrr.h"
#include "core/disco.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"

namespace disco {
namespace {

struct Case {
  int family;          // index into TopologyFamilies()
  std::uint64_t seed;
};

Graph MakeGraph(const Case& c, NodeId n) {
  return MakeTopology(TopologyFamilies()[c.family], n, c.seed);
}

void CheckRoute(const Graph& g, const Route& r, NodeId s, NodeId t,
                Dist shortest, const char* label) {
  ASSERT_TRUE(r.ok()) << label << " " << s << "->" << t;
  ASSERT_EQ(r.path.front(), s) << label;
  ASSERT_EQ(r.path.back(), t) << label;
  for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
    ASSERT_GE(g.InterfaceTo(r.path[i], r.path[i + 1]), 0)
        << label << ": hop " << r.path[i] << "->" << r.path[i + 1]
        << " is not an edge";
  }
  ASSERT_NEAR(r.length, PathLength(g, r.path), 1e-9) << label;
  ASSERT_GE(r.length, shortest - 1e-9) << label << " beats shortest path";
}

class RouteValidity
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RouteValidity, AllProtocolsEmitPhysicalWalks) {
  const Case c{std::get<0>(GetParam()), std::get<1>(GetParam())};
  const Graph g = MakeGraph(c, 384);
  Params p;
  p.seed = c.seed;
  Disco disco(g, p);
  S4 s4(g, p);
  const Vrr vrr(g, p);
  ShortestPathRouting spf(g);

  for (NodeId s = 0; s < g.num_nodes(); s += 61) {
    const auto truth = Dijkstra(g, s);
    for (NodeId t = 1; t < g.num_nodes(); t += 67) {
      if (s == t) continue;
      const Dist d = truth.dist[t];
      CheckRoute(g, disco.RouteFirst(s, t), s, t, d, "Disco-first");
      CheckRoute(g, disco.RouteLater(s, t), s, t, d, "Disco-later");
      CheckRoute(g, s4.RouteFirst(s, t), s, t, d, "S4-first");
      CheckRoute(g, s4.RouteLater(s, t), s, t, d, "S4-later");
      CheckRoute(g, vrr.RoutePacket(s, t), s, t, d, "VRR");
      CheckRoute(g, spf.RoutePacket(s, t), s, t, d, "SPF");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, RouteValidity,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(11ull, 22ull, 33ull)));

TEST(RouteValidityModes, EveryShortcutModeEmitsPhysicalWalks) {
  const Graph g = ConnectedGeometric(384, 8.0, 44);
  Params p;
  p.seed = 44;
  Disco disco(g, p);
  for (NodeId s = 0; s < g.num_nodes(); s += 53) {
    const auto truth = Dijkstra(g, s);
    for (NodeId t = 2; t < g.num_nodes(); t += 59) {
      if (s == t) continue;
      for (const Shortcut mode : kAllShortcuts) {
        CheckRoute(g, disco.RouteFirst(s, t, mode), s, t, truth.dist[t],
                   ShortcutName(mode));
      }
    }
  }
}

TEST(RouteValidityGbits, SmallerGroupsStillRoute) {
  // group_bits_offset trades state for a thinner vicinity∩group margin;
  // routes must stay valid, falling back (not failing) if the margin
  // breaks.
  const Graph g = ConnectedGnm(1024, 4096, 55);
  Params p;
  p.seed = 55;
  p.group_bits_offset = 2;
  Disco disco(g, p);
  std::size_t fallbacks = 0;
  for (NodeId s = 0; s < g.num_nodes(); s += 47) {
    const auto truth = Dijkstra(g, s);
    for (NodeId t = 3; t < g.num_nodes(); t += 43) {
      if (s == t) continue;
      const Route r = disco.RouteFirst(s, t);
      CheckRoute(g, r, s, t, truth.dist[t], "Disco-gbits2");
      fallbacks += r.via_fallback ? 1 : 0;
    }
  }
  // Smaller groups shrink state by 4x while the contact success rate stays
  // near 1 (the +O(1) constant the paper tunes).
  EXPECT_LT(fallbacks, 20u);
}

}  // namespace
}  // namespace disco
