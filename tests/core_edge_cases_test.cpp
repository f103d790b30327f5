// Degenerate and extreme topologies: the places protocol implementations
// usually break. Every protocol must behave on 2-node graphs, complete
// graphs (every node in every vicinity), stars (maximum degree skew),
// grids, and rings (maximum address length), and the overlay must still
// cover groups when nodes disagree about n.
#include <gtest/gtest.h>

#include "baselines/s4.h"
#include "baselines/spf.h"
#include "baselines/vrr.h"
#include "core/disco.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "test_util.h"
#include "util/rng.h"

namespace disco {
namespace {

Params WithSeed(std::uint64_t seed) {
  Params p;
  p.seed = seed;
  return p;
}

Graph CompleteGraph(NodeId n) {
  std::vector<WeightedEdge> edges;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) edges.push_back({a, b, 1.0});
  }
  return Graph::FromEdges(n, edges);
}

TEST(EdgeCases, TwoNodeGraph) {
  const Graph g = testing::PathGraph(2);
  Disco disco(g, WithSeed(1));
  const Route r = disco.RouteFirst(0, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.path, (std::vector<NodeId>{0, 1}));
  EXPECT_DOUBLE_EQ(r.length, 1.0);
  EXPECT_LE(disco.RouteLater(1, 0).length, 1.0 + 1e-9);
}

TEST(EdgeCases, TriangleAllPairs) {
  const Graph g = Ring(3);
  Disco disco(g, WithSeed(2));
  for (NodeId s = 0; s < 3; ++s) {
    for (NodeId t = 0; t < 3; ++t) {
      const Route r = disco.RouteFirst(s, t);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.path.front(), s);
      EXPECT_EQ(r.path.back(), t);
    }
  }
}

TEST(EdgeCases, CompleteGraphBoundsHold) {
  // Note vicinities do NOT cover even a complete graph (k = ceil(sqrt(
  // n ln n)) < n), so some first packets legitimately detour; the stretch
  // bounds still apply with every distance equal to 1.
  const Graph g = CompleteGraph(16);
  Disco disco(g, WithSeed(3));
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId t = 0; t < 16; ++t) {
      if (s == t) continue;
      const Route first = disco.RouteFirst(s, t);
      ASSERT_TRUE(first.ok());
      EXPECT_LE(first.length, 7.0) << s << "->" << t;
      EXPECT_LE(disco.RouteLater(s, t).length, 3.0) << s << "->" << t;
    }
  }
}

TEST(EdgeCases, StarHubNeverBreaksStateBound) {
  // Degree skew: the hub's label map must stay bounded by L + k even
  // though its degree is n-1 (the §4.5 label-mapping argument).
  const Graph g = testing::StarGraph(500);
  Disco disco(g, WithSeed(4));
  const StateBreakdown hub = disco.State(0);
  EXPECT_LE(hub.label_entries,
            hub.landmark_entries + hub.vicinity_entries);
  const Route r = disco.RouteFirst(1, 500);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.length, 2.0);  // leaf-hub-leaf is forced
}

TEST(EdgeCases, GridRoutesWithBoundedStretch) {
  const Graph g = Grid(16, 16);
  Disco disco(g, WithSeed(5));
  const auto truth = Dijkstra(g, 0);
  for (NodeId t = 17; t < 256; t += 23) {
    const Route later = disco.RouteLater(0, t);
    ASSERT_TRUE(later.ok());
    EXPECT_LE(later.length / truth.dist[t], 3.0 + 1e-9) << t;
  }
}

TEST(EdgeCases, RingAddressesStillRoute) {
  // Θ(n/L)-hop explicit routes (the worst case §4.2 discusses) must not
  // break routing or the later-packet bound.
  const Graph g = Ring(256);
  Disco disco(g, WithSeed(6));
  const auto truth = Dijkstra(g, 10);
  for (NodeId t = 20; t < 256; t += 31) {
    const Route later = disco.RouteLater(10, t);
    ASSERT_TRUE(later.ok());
    EXPECT_LE(later.length / truth.dist[t], 3.0 + 1e-9);
  }
}

TEST(EdgeCases, BaselinesOnDegenerateGraphs) {
  for (const NodeId n : {2u, 3u, 5u}) {
    const Graph g = n == 2 ? testing::PathGraph(2) : Ring(n);
    S4 s4(g, WithSeed(7));
    ShortestPathRouting spf(g);
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        EXPECT_TRUE(s4.RouteFirst(s, t).ok()) << "S4 " << n;
        EXPECT_TRUE(spf.RoutePacket(s, t).ok()) << "SPF " << n;
      }
    }
    // vset_half 3 wants more ring neighbors than these rings hold.
    for (const int vset_half : {1, 2, 3}) {
      const Vrr vrr(g, WithSeed(7), vset_half);
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId t = 0; t < n; ++t) {
          if (s == t) continue;
          EXPECT_TRUE(vrr.RoutePacket(s, t).ok())
              << "VRR " << n << " vset_half " << vset_half;
        }
      }
    }
  }
}

TEST(EdgeCases, OverlayCoversGroupsUnderMixedEstimates) {
  // Nodes disagreeing about n (within 2x) still disseminate addresses to
  // everyone who should store them — the core-group argument of §4.4.
  const NodeId n = 2048;
  const NameTable names = NameTable::Default(n);
  std::vector<double> estimates(n);
  Rng rng(321);
  for (NodeId v = 0; v < n; ++v) {
    estimates[v] = n * (0.7 + 0.6 * rng.NextDouble());  // [0.7n, 1.3n]
  }
  const SloppyGroups groups(names, estimates);
  Params p = WithSeed(8);
  p.fingers = 2;
  const Overlay overlay(names, groups, p);
  for (NodeId v = 0; v < n; v += 37) {
    const auto d = overlay.Disseminate(v);
    // §4.4 guarantees the *core group* G'(v) — nodes that all agree they
    // share v's group — is fully covered; nodes outside the core may or
    // may not receive the announcement.
    EXPECT_TRUE(d.covered_core)
        << "node " << v << ": core " << d.core_reached << "/"
        << d.core_size;
    EXPECT_GE(d.reached, d.core_reached);
  }
}

TEST(EdgeCases, ZeroLengthFlows) {
  const Graph g = ConnectedGnm(64, 256, 9);
  Disco disco(g, WithSeed(9));
  for (NodeId v = 0; v < 64; v += 7) {
    const Route r = disco.RouteFirst(v, v);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.path, std::vector<NodeId>{v});
    EXPECT_DOUBLE_EQ(r.length, 0.0);
  }
}

}  // namespace
}  // namespace disco
