#include "core/nddisco.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "test_util.h"

namespace disco {
namespace {

Params WithSeed(std::uint64_t seed) {
  Params p;
  p.seed = seed;
  return p;
}

TEST(NdDisco, DirectPathWithinVicinity) {
  const Graph g = testing::PathGraph(16);
  NdDisco nd(g, WithSeed(1));
  // Adjacent nodes are always in each other's vicinity.
  EXPECT_TRUE(nd.KnowsDirect(3, 4));
  const auto p = nd.DirectPath(3, 4);
  EXPECT_EQ(p, (std::vector<NodeId>{3, 4}));
}

TEST(NdDisco, DirectPathToLandmark) {
  const Graph g = ConnectedGnm(512, 2048, 3);
  NdDisco nd(g, WithSeed(3));
  const NodeId l = nd.landmarks().landmarks.front();
  const auto truth = Dijkstra(g, l);
  for (NodeId u = 0; u < g.num_nodes(); u += 97) {
    ASSERT_TRUE(nd.KnowsDirect(u, l));
    const auto p = nd.DirectPath(u, l);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.front(), u);
    EXPECT_EQ(p.back(), l);
    EXPECT_NEAR(PathLength(g, p), truth.dist[u], 1e-9);
  }
}

TEST(NdDisco, SelfRouteIsTrivial) {
  const Graph g = ConnectedGnm(128, 512, 5);
  NdDisco nd(g, WithSeed(5));
  const Route r = nd.RouteFirst(7, 7);
  EXPECT_EQ(r.path, std::vector<NodeId>{7});
  EXPECT_DOUBLE_EQ(r.length, 0.0);
}

TEST(NdDisco, FirstPacketPlanGoesViaLandmark) {
  const Graph g = ConnectedGnm(1024, 4096, 7);
  NdDisco nd(g, WithSeed(7));
  // Find a pair with no direct knowledge.
  for (NodeId s = 0, found = 0; s < 64 && found < 5; ++s) {
    for (NodeId t = 512; t < 576; ++t) {
      if (nd.KnowsDirect(s, t)) continue;
      const auto plan = nd.FirstPacketPlan(s, t);
      const NodeId lt = nd.addresses().closest_landmark(t);
      EXPECT_EQ(plan.front(), s);
      EXPECT_EQ(plan.back(), t);
      EXPECT_NE(std::find(plan.begin(), plan.end(), lt), plan.end())
          << "plan must pass through l_t";
      ++found;
      break;
    }
  }
}

TEST(NdDisco, RouteEndpointsAlwaysCorrect) {
  const Graph g = ConnectedGeometric(512, 8.0, 9);
  NdDisco nd(g, WithSeed(9));
  for (NodeId s = 0; s < g.num_nodes(); s += 131) {
    for (NodeId t = 1; t < g.num_nodes(); t += 137) {
      const Route first = nd.RouteFirst(s, t);
      const Route later = nd.RouteLater(s, t);
      ASSERT_TRUE(first.ok());
      ASSERT_TRUE(later.ok());
      EXPECT_EQ(first.path.front(), s);
      EXPECT_EQ(first.path.back(), t);
      EXPECT_EQ(later.path.front(), s);
      EXPECT_EQ(later.path.back(), t);
      EXPECT_LE(later.length, first.length + 1e-9);
    }
  }
}

TEST(NdDisco, HandshakeGivesShortestWhenSourceInDestVicinity) {
  const Graph g = ConnectedGnm(512, 2048, 11);
  NdDisco nd(g, WithSeed(11));
  const auto vic_t = nd.vicinity(100);
  // Pick an s inside V(100) that is not trivially adjacent.
  for (const Vicinity::Member& m : vic_t->members()) {
    if (m.dist < 2.0 || m.node == 100) continue;
    const Route later = nd.RouteLater(m.node, 100);
    EXPECT_NEAR(later.length, m.dist, 1e-9);
    break;
  }
}

class NdDiscoStretchBounds : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(NdDiscoStretchBounds, TheoremBoundsHold) {
  // Stretch ≤ 5 (first) / ≤ 3 (later) whenever the w.h.p. precondition —
  // a landmark inside each relevant vicinity — holds; we assert the bound
  // on qualifying pairs and that nearly all pairs qualify.
  const std::uint64_t seed = GetParam();
  const Graph g = ConnectedGeometric(768, 8.0, seed);
  NdDisco nd(g, WithSeed(seed));

  auto vicinity_has_landmark = [&](NodeId v) {
    for (const Vicinity::Member& m : nd.vicinity(v)->members()) {
      if (nd.landmarks().Contains(m.node)) return true;
    }
    return false;
  };

  int qualifying = 0, total = 0;
  for (NodeId s = 1; s < g.num_nodes(); s += 61) {
    const auto truth = Dijkstra(g, s);
    for (NodeId t = 3; t < g.num_nodes(); t += 67) {
      if (s == t || truth.dist[t] <= 0) continue;
      ++total;
      if (!vicinity_has_landmark(s) || !vicinity_has_landmark(t)) continue;
      ++qualifying;
      const double first =
          nd.RouteFirst(s, t, Shortcut::kNone).length / truth.dist[t];
      const double later =
          nd.RouteLater(s, t, Shortcut::kNone).length / truth.dist[t];
      EXPECT_LE(first, 5.0 + 1e-9) << s << "->" << t;
      EXPECT_LE(later, 3.0 + 1e-9) << s << "->" << t;
    }
  }
  EXPECT_GT(qualifying, total * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NdDiscoStretchBounds,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(NdDisco, StateIsBalancedAndBounded) {
  const Graph g = ConnectedGnm(1024, 4096, 13);
  NdDisco nd(g, WithSeed(13));
  const std::size_t L = nd.landmarks().count();
  const std::size_t k = nd.vicinity_size();
  for (NodeId v = 0; v < g.num_nodes(); v += 111) {
    const StateBreakdown b = nd.State(v);
    EXPECT_EQ(b.landmark_entries, L);
    EXPECT_EQ(b.vicinity_entries, k);
    EXPECT_LE(b.label_entries, L + k);
    EXPECT_EQ(b.cluster_entries, 0u);
    // Total bounded by the O(sqrt(n log n)) promise with a small constant.
    EXPECT_LE(b.total(), 4 * (L + k));
  }
}

TEST(NdDisco, ResolutionEntriesOnlyAtLandmarks) {
  const Graph g = ConnectedGnm(512, 2048, 17);
  NdDisco nd(g, WithSeed(17));
  const NameTable names = NameTable::Default(g.num_nodes());
  const ResolutionDb db(names, nd.landmarks());
  std::size_t hosted = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const StateBreakdown b = nd.State(v, &db);
    if (!nd.landmarks().Contains(v)) {
      EXPECT_EQ(b.resolution_entries, 0u);
    }
    hosted += b.resolution_entries;
  }
  EXPECT_EQ(hosted, g.num_nodes());
}

TEST(NdDisco, OperatorChosenLandmarksStillRoute) {
  // §6: the guarantees survive non-random landmark choice as long as each
  // node keeps a landmark in its vicinity. Degree-based landmarks on a
  // hub-heavy map are the paper's "well-provisioned" example.
  const Graph g = BarabasiAlbert(1024, 2, 23);
  NdDisco nd(g, WithSeed(23), SelectDegreeBasedLandmarks(g, WithSeed(23)));
  const auto truth = Dijkstra(g, 1);
  for (NodeId t = 5; t < g.num_nodes(); t += 37) {
    const Route first = nd.RouteFirst(1, t);
    const Route later = nd.RouteLater(1, t);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.path.back(), t);
    if (truth.dist[t] > 0) {
      EXPECT_LE(later.length / truth.dist[t], 3.0 + 1e-9);
    }
  }
}

TEST(NdDisco, DegreeLandmarksShortenAddressesOnHubMaps) {
  // Hubs are close to everything, so anchoring addresses at them shortens
  // explicit routes versus random landmarks.
  const Graph g = BarabasiAlbert(4096, 2, 29);
  NdDisco random(g, WithSeed(29));
  NdDisco degree(g, WithSeed(29), SelectDegreeBasedLandmarks(g, WithSeed(29)));
  double random_hops = 0, degree_hops = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    random_hops += static_cast<double>(random.addresses().AddressOf(v).num_hops());
    degree_hops += static_cast<double>(degree.addresses().AddressOf(v).num_hops());
  }
  EXPECT_LT(degree_hops, random_hops);
}

TEST(NdDisco, WorksOnRings) {
  const Graph g = Ring(128);
  NdDisco nd(g, WithSeed(19));
  const auto truth = Dijkstra(g, 0);
  for (NodeId t = 1; t < 128; t += 13) {
    const Route r = nd.RouteLater(0, t);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r.length / truth.dist[t], 3.0 + 1e-9);
  }
}

}  // namespace
}  // namespace disco
