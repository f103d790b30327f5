#include "routing/vicinity.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/s4.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "routing/params.h"
#include "test_util.h"

namespace disco {
namespace {

using testing::PathGraph;

// The entry of `near` for node v, found by a linear scan, or nullptr.
const NearNode* ScanFor(const std::vector<NearNode>& near, NodeId v) {
  for (const NearNode& m : near) {
    if (m.node == v) return &m;
  }
  return nullptr;
}

// Checks `vic` against `near`, the search result it stores: the members in
// order, then the sorted index and the parent positions for every node of
// g; the reference path walks near's parent ids from v back to the owner.
void ExpectMatchesLinearScan(const Graph& g, const Vicinity& vic,
                             const std::vector<NearNode>& near) {
  ASSERT_EQ(vic.size(), near.size());
  for (std::size_t i = 0; i < near.size(); ++i) {
    EXPECT_EQ(vic.members()[i].node, near[i].node) << i;
    EXPECT_EQ(vic.members()[i].dist, near[i].dist) << i;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NearNode* m = ScanFor(near, v);
    ASSERT_EQ(vic.Contains(v), m != nullptr) << vic.owner() << " " << v;
    EXPECT_EQ(vic.DistanceTo(v), m != nullptr ? m->dist : kInfDist) << v;
    std::vector<NodeId> want;
    for (const NearNode* cur = m; cur != nullptr;) {
      want.push_back(cur->node);
      cur = cur->node == vic.owner() ? nullptr : ScanFor(near, cur->parent);
    }
    std::reverse(want.begin(), want.end());
    if (m != nullptr) {
      ASSERT_EQ(want.front(), vic.owner()) << v;
    }
    EXPECT_EQ(vic.PathTo(v), want) << vic.owner() << " " << v;
  }
}

TEST(Vicinity, IndexMatchesLinearScanOnUnitWeights) {
  // Unit weights: most distances tie, and ties are broken by id.
  const Graph g = ConnectedGnm(200, 800, 4);
  const std::size_t k = VicinitySize(g.num_nodes());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    ExpectMatchesLinearScan(g, Vicinity::Nearest(g, s, k),
                            KNearest(g, s, k));
  }
}

TEST(Vicinity, IndexMatchesLinearScanOnGeometricWeights) {
  const Graph g = ConnectedGeometric(200, 8.0, 6);
  const std::size_t k = VicinitySize(g.num_nodes());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    ExpectMatchesLinearScan(g, Vicinity::Nearest(g, s, k),
                            KNearest(g, s, k));
  }
}

TEST(Vicinity, IndexMatchesLinearScanOnS4Balls) {
  const Graph g = ConnectedGnm(200, 800, 8);
  S4 s4(g, Params{});
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    // A ball holds every node within its radius, so the search to its
    // farthest member's distance gives it back.
    const auto ball = s4.Ball(t);
    ExpectMatchesLinearScan(g, *ball, WithinRadius(g, t, ball->radius()));
  }
}

TEST(Vicinity, IndexMatchesLinearScanAtSizeOneAndN) {
  const Graph g = ConnectedGeometric(64, 6.0, 2);
  for (const NodeId s : {NodeId{0}, NodeId{17}, g.num_nodes() - 1}) {
    const Vicinity alone = Vicinity::Nearest(g, s, 1);
    ASSERT_EQ(alone.size(), 1u);
    ExpectMatchesLinearScan(g, alone, KNearest(g, s, 1));
    const Vicinity all = Vicinity::Nearest(g, s, g.num_nodes());
    ASSERT_EQ(all.size(), g.num_nodes());
    ExpectMatchesLinearScan(g, all, KNearest(g, s, g.num_nodes()));
  }
}

TEST(Vicinity, ContainsOwnerAtZero) {
  const Graph g = PathGraph(10);
  const Vicinity vic = Vicinity::Nearest(g, 5, 4);
  EXPECT_EQ(vic.owner(), 5u);
  EXPECT_TRUE(vic.Contains(5));
  EXPECT_DOUBLE_EQ(vic.DistanceTo(5), 0.0);
}

TEST(Vicinity, MembershipAndDistances) {
  const Graph g = PathGraph(10);
  const Vicinity vic = Vicinity::Nearest(g, 5, 5);  // 5,4,6,3,7 (ties by id)
  EXPECT_TRUE(vic.Contains(4));
  EXPECT_TRUE(vic.Contains(6));
  EXPECT_DOUBLE_EQ(vic.DistanceTo(7), 2.0);
  EXPECT_FALSE(vic.Contains(9));
  EXPECT_EQ(vic.DistanceTo(9), kInfDist);
}

TEST(Vicinity, RadiusIsFarthestMember) {
  const Graph g = PathGraph(20);
  const Vicinity vic = Vicinity::Nearest(g, 10, 7);
  EXPECT_DOUBLE_EQ(vic.radius(), 3.0);
}

TEST(Vicinity, PathToMemberIsShortest) {
  const Graph g = ConnectedGeometric(256, 8.0, 3);
  const Vicinity vic = Vicinity::Nearest(g, 9, 40);
  for (const Vicinity::Member& m : vic.members()) {
    const auto path = vic.PathTo(m.node);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 9u);
    EXPECT_EQ(path.back(), m.node);
    EXPECT_NEAR(PathLength(g, path), m.dist, 1e-9);
  }
}

TEST(Vicinity, PathToNonMemberIsEmpty) {
  const Graph g = PathGraph(10);
  const Vicinity vic = Vicinity::Nearest(g, 0, 3);
  EXPECT_TRUE(vic.PathTo(9).empty());
}

TEST(VicinityCache, ReturnsConsistentResults) {
  const Graph g = ConnectedGnm(128, 512, 5);
  VicinityCache cache(g, 20, 4);
  const auto first = cache.Get(7);
  // Evict by touching more nodes than the capacity.
  for (NodeId v = 0; v < 10; ++v) cache.Get(v);
  const auto second = cache.Get(7);
  ASSERT_EQ(first->size(), second->size());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ(first->members()[i].node, second->members()[i].node);
  }
}

TEST(VicinityCache, CachesHits) {
  const Graph g = ConnectedGnm(128, 512, 5);
  VicinityCache cache(g, 20, 64);
  cache.Get(3);
  cache.Get(3);
  cache.Get(3);
  EXPECT_EQ(cache.computed_count(), 1u);
}

TEST(VicinityCache, EvictsLeastRecentlyUsed) {
  const Graph g = ConnectedGnm(128, 512, 5);
  VicinityCache cache(g, 10, 2);
  cache.Get(1);
  cache.Get(2);
  cache.Get(1);       // 1 is now most recent
  cache.Get(3);       // evicts 2
  cache.Get(1);       // still cached
  EXPECT_EQ(cache.computed_count(), 3u);
  cache.Get(2);       // recompute
  EXPECT_EQ(cache.computed_count(), 4u);
}

TEST(VicinityCache, SharedPtrSurvivesEviction) {
  const Graph g = ConnectedGnm(128, 512, 5);
  VicinityCache cache(g, 10, 1);
  const auto held = cache.Get(0);
  cache.Get(1);  // evicts 0 from the cache
  cache.Get(2);
  EXPECT_EQ(held->owner(), 0u);  // still valid through shared ownership
  EXPECT_TRUE(held->Contains(0));
}

TEST(VicinityCache, DefaultCapacityComputesEachVicinityOnce) {
  // n·k fits kMemberBudget, so the default capacity keeps every vicinity,
  // more of them than one Prewarm() computes.
  const Graph g = ConnectedGnm(5000, 20000, 5);
  const std::size_t k = VicinitySize(g.num_nodes());
  ASSERT_LE(g.num_nodes() * k, VicinityCache::kMemberBudget);
  ASSERT_GT(g.num_nodes(), VicinityCache::kPrewarmLimit);
  VicinityCache cache(g, k);
  for (int round = 0; round < 2; ++round) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) cache.Get(v);
  }
  EXPECT_EQ(cache.computed_count(), g.num_nodes());
}

TEST(VicinityCache, PrewarmComputesAtMostItsLimit) {
  const Graph g = ConnectedGnm(5000, 20000, 7);
  VicinityCache cache(g, 4);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  cache.Prewarm(all);
  EXPECT_EQ(cache.computed_count(), VicinityCache::kPrewarmLimit);
  EXPECT_EQ(VicinityCache::kPrewarmLimit, 4096u);
  // A second call skips the resident ones and computes the rest.
  cache.Prewarm(all);
  EXPECT_EQ(cache.computed_count(), g.num_nodes());
}

TEST(VicinityCache, KClampedToGraphSize) {
  const Graph g = PathGraph(5);
  VicinityCache cache(g, 100, 4);
  EXPECT_EQ(cache.k(), 5u);
  EXPECT_EQ(cache.Get(0)->size(), 5u);
}

TEST(Vicinity, AsymmetryIsPossible) {
  // s ∈ V(t) does not imply t ∈ V(s) (the paper leans on this asymmetry in
  // the handshake): build a star where the hub's vicinity is tiny but each
  // leaf sees the hub first.
  const Graph g = testing::StarGraph(30);
  VicinityCache cache(g, 3, 64);
  const auto hub = cache.Get(0);
  const auto leaf = cache.Get(25);
  EXPECT_TRUE(leaf->Contains(0));        // hub is every leaf's closest
  EXPECT_FALSE(hub->Contains(25));       // hub kept only 3 of 31 nodes
}

}  // namespace
}  // namespace disco
