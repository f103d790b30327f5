#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "graph/generators.h"
#include "routing/params.h"
#include "runtime/parallel_for.h"
#include "test_util.h"
#include "util/rng.h"

namespace disco {
namespace {

using testing::BellmanFord;
using testing::DiamondGraph;
using testing::PathGraph;

TEST(Dijkstra, PathGraphDistances) {
  const Graph g = PathGraph(5);
  const auto t = Dijkstra(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_DOUBLE_EQ(t.dist[v], v);
}

TEST(Dijkstra, PicksWeightedShortestPath) {
  const Graph g = DiamondGraph();
  const auto t = Dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.dist[3], 2.0);  // via node 1, not node 2
  EXPECT_EQ(t.PathTo(3), (std::vector<NodeId>{0, 1, 3}));
}

TEST(Dijkstra, UnreachableNodes) {
  const std::vector<WeightedEdge> edges = {{0, 1, 1.0}};
  const Graph g = Graph::FromEdges(3, edges);
  const auto t = Dijkstra(g, 0);
  EXPECT_FALSE(t.reachable(2));
  EXPECT_TRUE(t.PathTo(2).empty());
}

TEST(Dijkstra, PathEndpointsAndContiguity) {
  const Graph g = ConnectedGnm(128, 512, 3);
  const auto t = Dijkstra(g, 5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto path = t.PathTo(v);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 5u);
    EXPECT_EQ(path.back(), v);
    EXPECT_DOUBLE_EQ(PathLength(g, path), t.dist[v]);
  }
}

class DijkstraVsBellmanFord : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DijkstraVsBellmanFord, DistancesAgreeOnRandomGraphs) {
  const std::uint64_t seed = GetParam();
  const Graph g = ConnectedGeometric(128, 6.0, seed);
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    const NodeId src = static_cast<NodeId>(rng.NextBelow(g.num_nodes()));
    const auto fast = Dijkstra(g, src);
    const auto ref = BellmanFord(g, src);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_NEAR(fast.dist[v], ref[v], 1e-9) << "src " << src;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsBellmanFord,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(KNearest, IncludesSelfFirst) {
  const Graph g = PathGraph(10);
  const auto near = KNearest(g, 4, 3);
  ASSERT_EQ(near.size(), 3u);
  EXPECT_EQ(near[0].node, 4u);
  EXPECT_DOUBLE_EQ(near[0].dist, 0.0);
}

TEST(KNearest, SortedByDistanceThenId) {
  const Graph g = ConnectedGnm(128, 512, 9);
  const auto near = KNearest(g, 0, 40);
  for (std::size_t i = 1; i < near.size(); ++i) {
    const bool ordered =
        near[i - 1].dist < near[i].dist ||
        (near[i - 1].dist == near[i].dist &&
         near[i - 1].node < near[i].node);
    EXPECT_TRUE(ordered) << "position " << i;
  }
}

TEST(KNearest, MatchesFullDijkstra) {
  const Graph g = ConnectedGeometric(256, 8.0, 21);
  const std::size_t k = 50;
  const auto near = KNearest(g, 7, k);
  ASSERT_EQ(near.size(), k);

  // Reference: sort all nodes by (dist, id) under a full Dijkstra.
  const auto full = Dijkstra(g, 7);
  std::vector<std::pair<Dist, NodeId>> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) all.push_back({full.dist[v], v});
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(near[i].node, all[i].second) << i;
    EXPECT_DOUBLE_EQ(near[i].dist, all[i].first) << i;
  }
}

TEST(KNearest, TruncatesAtComponentBoundary) {
  const std::vector<WeightedEdge> edges = {{0, 1, 1.0}, {2, 3, 1.0}};
  const Graph g = Graph::FromEdges(4, edges);
  EXPECT_EQ(KNearest(g, 0, 10).size(), 2u);
}

TEST(KNearest, ParentsFormTreeTowardSource) {
  const Graph g = ConnectedGnm(128, 512, 33);
  const auto near = KNearest(g, 3, 30);
  for (std::size_t i = 1; i < near.size(); ++i) {
    // Parent must have been settled earlier (BFS-like invariant).
    bool parent_settled_earlier = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (near[j].node == near[i].parent) parent_settled_earlier = true;
    }
    EXPECT_TRUE(parent_settled_earlier) << "member " << i;
  }
}

TEST(WithinRadius, ExactBall) {
  const Graph g = PathGraph(10);
  const auto ball = WithinRadius(g, 5, 2.0);
  ASSERT_EQ(ball.size(), 5u);  // 3,4,5,6,7
  for (const auto& m : ball) EXPECT_LE(m.dist, 2.0);
}

TEST(WithinRadius, MatchesKNearestPrefix) {
  const Graph g = ConnectedGeometric(256, 8.0, 5);
  const auto near = KNearest(g, 11, 60);
  const Dist radius = near.back().dist;
  const auto ball = WithinRadius(g, 11, radius);
  // The ball may be larger on ties, never smaller.
  EXPECT_GE(ball.size(), near.size());
  for (const auto& m : ball) EXPECT_LE(m.dist, radius);
}

// A ring plus random chords, each edge of weight 1 or 2 doubled by a
// parallel edge of the other weight.
Graph ParallelArcGraph(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedEdge> edges;
  for (NodeId v = 0; v < n; ++v) {
    const auto chord = static_cast<NodeId>(rng.NextBelow(n));
    for (const NodeId w : {(v + 1) % n, chord}) {
      const Dist weight = 1.0 + static_cast<Dist>(rng.NextBelow(2));
      edges.push_back({v, w, weight});
      edges.push_back({v, w, 3.0 - weight});
    }
  }
  return Graph::FromEdges(n, edges);
}

// Three components of random geometric-weight edges, plus an isolated node.
Graph DisconnectedGraph(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedEdge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) {
    for (int e = 0; e < 2; ++e) {
      const auto w = static_cast<NodeId>(rng.NextBelow(n - 1));
      if (w % 3 == v % 3) edges.push_back({v, w, 0.25 + rng.NextDouble()});
    }
  }
  return Graph::FromEdges(n, edges);
}

// Every node a full Dijkstra reaches, in (dist, id) order.
std::vector<NearNode> SortedFullTree(const ShortestPathTree& full) {
  std::vector<NearNode> all;
  for (NodeId v = 0; v < full.dist.size(); ++v) {
    if (full.reachable(v)) all.push_back({v, full.parent[v], full.dist[v]});
  }
  std::sort(all.begin(), all.end(), [](const NearNode& a, const NearNode& b) {
    return a.dist < b.dist || (a.dist == b.dist && a.node < b.node);
  });
  return all;
}

std::uint64_t Bits(Dist d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// `got` must be the first `count` entries of `want`, with bit-equal
// distances and the same (min-id) parents, and `pos` must place every
// member's parent.
void ExpectPrefix(const std::vector<NearNode>& got,
                  const std::vector<std::uint32_t>& pos,
                  const std::vector<NearNode>& want, std::size_t count) {
  ASSERT_EQ(got.size(), count);
  ASSERT_EQ(pos.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(got[i].node, want[i].node) << i;
    ASSERT_EQ(got[i].parent, want[i].parent) << i;
    ASSERT_EQ(Bits(got[i].dist), Bits(want[i].dist)) << i;
    if (i == 0) {
      ASSERT_EQ(pos[i], kNoPosition);
    } else {
      ASSERT_LT(pos[i], i);
      ASSERT_EQ(got[pos[i]].node, got[i].parent) << i;
    }
  }
}

// KNearest from `s` for k in {1, 2, VicinitySize(n), n, n + 5}, and
// WithinRadius at each k-th radius and at radius 2, against a full Dijkstra.
void ExpectMatchesFullDijkstra(const Graph& g, NodeId s) {
  const std::vector<NearNode> want = SortedFullTree(Dijkstra(g, s));
  const NodeId n = g.num_nodes();
  auto ball = [&](Dist r) {  // how many nodes lie within r
    return static_cast<std::size_t>(
        std::upper_bound(want.begin(), want.end(), r,
                         [](Dist x, const NearNode& m) { return x < m.dist; }) -
        want.begin());
  };
  std::vector<std::uint32_t> pos;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                              VicinitySize(n), std::size_t{n},
                              std::size_t{n} + 5}) {
    SCOPED_TRACE(::testing::Message() << "n " << n << " source " << s
                                    << " k " << k);
    const auto near = KNearest(g, s, k, &pos);
    ExpectPrefix(near, pos, want, std::min(k, want.size()));
    const Dist radius = near.back().dist;
    ExpectPrefix(WithinRadius(g, s, radius, &pos), pos, want, ball(radius));
  }
  // A fixed radius, searched again and again on one thread's scratch.
  ExpectPrefix(WithinRadius(g, s, 2.0, &pos), pos, want, ball(2.0));
}

TEST(KNearest, IsPrefixOfFullDijkstraTree) {
  // Two graph sizes, interleaved source by source, so each call finds the
  // thread's scratch left by a search of the other graph (and the first
  // call on the larger graph grows it).
  const std::vector<Graph> graphs = {
      ParallelArcGraph(90, 1), ConnectedGnm(300, 1200, 17),
      DisconnectedGraph(90, 2), ConnectedGeometric(300, 8.0, 19)};
  for (NodeId s = 0; s < 300; ++s) {
    for (const Graph& g : graphs) {
      if (s < g.num_nodes()) ExpectMatchesFullDijkstra(g, s);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KNearest, ParallelSearchesMatchSerial) {
  const Graph g = ConnectedGnm(300, 1200, 23);
  const std::size_t k = VicinitySize(g.num_nodes());
  struct Result {
    std::vector<NearNode> near, ball;
    std::vector<std::uint32_t> near_pos, ball_pos;
  };
  auto search = [&](NodeId s) {
    Result r;
    r.near = KNearest(g, s, k, &r.near_pos);
    r.ball = WithinRadius(g, s, r.near.back().dist, &r.ball_pos);
    return r;
  };
  std::vector<Result> pooled(g.num_nodes());
  runtime::ParallelForTasks(g.num_nodes(), [&](std::size_t s) {
    pooled[s] = search(static_cast<NodeId>(s));
  });
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    SCOPED_TRACE(::testing::Message() << "source " << s);
    const Result serial = search(s);
    ExpectPrefix(pooled[s].near, pooled[s].near_pos, serial.near,
                 serial.near.size());
    ExpectPrefix(pooled[s].ball, pooled[s].ball_pos, serial.ball,
                 serial.ball.size());
    ASSERT_EQ(pooled[s].near_pos, serial.near_pos);
    ASSERT_EQ(pooled[s].ball_pos, serial.ball_pos);
  }
}

TEST(MultiSource, ClosestSourceAndDistance) {
  const Graph g = PathGraph(10);
  const auto t = MultiSourceDijkstra(g, {0, 9});
  EXPECT_EQ(t.closest[2], 0u);
  EXPECT_EQ(t.closest[7], 9u);
  EXPECT_DOUBLE_EQ(t.dist[2], 2.0);
  EXPECT_DOUBLE_EQ(t.dist[7], 2.0);
}

TEST(MultiSource, TieBreaksBySmallerSourceId) {
  const Graph g = PathGraph(5);
  const auto t = MultiSourceDijkstra(g, {0, 4});
  EXPECT_EQ(t.closest[2], 0u);  // equidistant; smaller id wins
}

TEST(MultiSource, PathFromSourceIsValid) {
  const Graph g = ConnectedGnm(128, 512, 55);
  const std::vector<NodeId> sources = {1, 17, 99};
  const auto t = MultiSourceDijkstra(g, sources);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto path = t.PathFromSource(v);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), t.closest[v]);
    EXPECT_EQ(path.back(), v);
    EXPECT_DOUBLE_EQ(PathLength(g, path), t.dist[v]);
  }
}

TEST(MultiSource, AgreesWithPerSourceDijkstra) {
  const Graph g = ConnectedGeometric(200, 8.0, 61);
  const std::vector<NodeId> sources = {3, 77, 150};
  const auto multi = MultiSourceDijkstra(g, sources);
  std::vector<ShortestPathTree> singles;
  for (const NodeId s : sources) singles.push_back(Dijkstra(g, s));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    Dist best = kInfDist;
    for (const auto& t : singles) best = std::min(best, t.dist[v]);
    ASSERT_NEAR(multi.dist[v], best, 1e-9);
  }
}

TEST(PathLength, EmptyAndSinglePathsAreZero) {
  const Graph g = PathGraph(4);
  EXPECT_DOUBLE_EQ(PathLength(g, {}), 0.0);
  EXPECT_DOUBLE_EQ(PathLength(g, {2}), 0.0);
}

TEST(PathLength, DetectsNonEdges) {
  const Graph g = PathGraph(4);
  EXPECT_EQ(PathLength(g, {0, 2}), kInfDist);
}

}  // namespace
}  // namespace disco
