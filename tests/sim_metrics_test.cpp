#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "baselines/spf.h"
#include "graph/generators.h"
#include "runtime/thread_pool.h"
#include "sim/disco_msg.h"
#include "test_util.h"

namespace disco {
namespace {

RouteFn SpfRoute(ShortestPathRouting& spf) {
  return [&spf](NodeId s, NodeId t) { return spf.RoutePacket(s, t); };
}

TEST(Metrics, ShortestPathStretchIsOne) {
  const Graph g = ConnectedGeometric(256, 8.0, 1);
  ShortestPathRouting spf(g);
  const auto stretches = SampleStretch(SamplePairs(g, 200, 1), SpfRoute(spf));
  ASSERT_FALSE(stretches.empty());
  for (const double s : stretches) EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(Metrics, FailedRoutesAreReported) {
  const Graph g = ConnectedGnm(64, 256, 3);
  auto failing = [](NodeId, NodeId) { return Route{}; };
  std::vector<StretchSample> details;
  const auto stretches =
      SampleStretch(SamplePairs(g, 50, 1), failing, &details);
  EXPECT_TRUE(stretches.empty());
  ASSERT_FALSE(details.empty());
  for (const auto& d : details) EXPECT_TRUE(d.failed);
}

TEST(Metrics, SamplingIsDeterministic) {
  const Graph g = ConnectedGnm(128, 512, 5);
  ShortestPathRouting spf(g);
  std::vector<StretchSample> d1, d2;
  SampleStretch(SamplePairs(g, 64, 42), SpfRoute(spf), &d1);
  SampleStretch(SamplePairs(g, 64, 42), SpfRoute(spf), &d2);
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].s, d2[i].s);
    EXPECT_EQ(d1[i].t, d2[i].t);
  }
}

TEST(Metrics, SamplePairsIsThreadCountInvariant) {
  const Graph g = ConnectedGnm(256, 1024, 13);
  runtime::ThreadPool::ResetShared(1);
  const PairSample serial = SamplePairs(g, 101, 9);
  runtime::ThreadPool::ResetShared(4);
  const PairSample wide = SamplePairs(g, 101, 9);
  runtime::ThreadPool::ResetShared(1);
  EXPECT_EQ(serial.num_pairs, 101u);
  EXPECT_EQ(wide.num_pairs, 101u);
  ASSERT_EQ(serial.candidates.size(), wide.candidates.size());
  // 26 sources x 4 destinations, minus t = s draws.
  EXPECT_FALSE(serial.candidates.empty());
  EXPECT_LE(serial.candidates.size(), 26u * 4);
  for (std::size_t i = 0; i < serial.candidates.size(); ++i) {
    EXPECT_EQ(serial.candidates[i].s, wide.candidates[i].s);
    EXPECT_EQ(serial.candidates[i].t, wide.candidates[i].t);
    EXPECT_EQ(serial.candidates[i].shortest, wide.candidates[i].shortest);
  }
}

TEST(Metrics, OneSampleServesEveryCallInCandidateOrder) {
  // Two routes over one sample see the same (s, t) sequence: the
  // candidates themselves, in order, up to the cap on successful pairs.
  const Graph g = ConnectedGnm(128, 512, 5);
  ShortestPathRouting spf(g);
  const PairSample sample = SamplePairs(g, 40, 3);
  std::vector<StretchSample> d1, d2;
  const auto first = SampleStretch(sample, SpfRoute(spf), &d1);
  const auto again = SampleStretch(
      sample, [&](NodeId s, NodeId t) { return spf.RoutePacket(s, t); },
      &d2);
  EXPECT_EQ(first, again);
  // SPF never fails and 10 sources x 4 draws never pass the cap of 40, so
  // every candidate is reported.
  ASSERT_EQ(d1.size(), sample.candidates.size());
  ASSERT_EQ(d2.size(), d1.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].s, sample.candidates[i].s);
    EXPECT_EQ(d1[i].t, sample.candidates[i].t);
    EXPECT_EQ(d1[i].shortest, sample.candidates[i].shortest);
    EXPECT_EQ(d2[i].s, d1[i].s);
    EXPECT_EQ(d2[i].t, d1[i].t);
  }
}

TEST(Metrics, CongestionCountsOneRoutePerNode) {
  const Graph g = ConnectedGnm(128, 512, 7);
  ShortestPathRouting spf(g);
  const auto counts =
      CongestionCounts(g, OneFlowPerNode(g.num_nodes(), 7), SpfRoute(spf));
  EXPECT_EQ(counts.size(), g.num_edges());
  const std::size_t total =
      std::accumulate(counts.begin(), counts.end(), std::size_t{0});
  // Each of n routes uses at least one edge (s != t in a connected graph).
  EXPECT_GE(total, g.num_nodes());
}

TEST(Metrics, CongestionOnPathGraphIsCentered) {
  // On a path, central edges must carry more random-pair routes than
  // peripheral ones.
  const Graph g = testing::PathGraph(64);
  ShortestPathRouting spf(g);
  const auto counts =
      CongestionCounts(g, OneFlowPerNode(g.num_nodes(), 9), SpfRoute(spf));
  const std::size_t mid = counts[31];
  const std::size_t edge0 = counts[0];
  EXPECT_GT(mid, edge0);
}

TEST(Metrics, CongestionCountsEqualASerialTally) {
  // An explicit flow list, repeats and all, charges exactly the edges a
  // one-flow-at-a-time loop charges.
  const Graph g = ConnectedGnm(200, 800, 17);
  ShortestPathRouting spf(g);
  std::vector<Flow> flows;
  for (NodeId v = 0; v + 1 < g.num_nodes(); v += 3) {
    flows.push_back({v, static_cast<NodeId>(g.num_nodes() - 1 - v)});
    flows.push_back({v, static_cast<NodeId>(v + 1)});
  }
  std::vector<std::size_t> serial(g.num_edges(), 0);
  for (const auto& [s, t] : flows) {
    const Route r = spf.RoutePacket(s, t);
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      ++serial[g.CheapestArc(r.path[i], r.path[i + 1])->edge];
    }
  }
  runtime::ThreadPool::ResetShared(4);
  const auto counts = CongestionCounts(g, flows, SpfRoute(spf));
  runtime::ThreadPool::ResetShared(1);
  EXPECT_EQ(counts, serial);
}

TEST(Metrics, SampleNodesUniqueAndInRange) {
  const auto sample = SampleNodes(1000, 100, 3);
  EXPECT_EQ(sample.size(), 100u);
  std::set<NodeId> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 100u);
  for (const NodeId v : sample) EXPECT_LT(v, 1000u);
}

TEST(Metrics, SampleNodesReturnsAllWhenCountExceedsN) {
  const auto sample = SampleNodes(10, 50, 3);
  EXPECT_EQ(sample.size(), 10u);
}

TEST(OverlayMessaging, ScalesGentlyAndIsPositive) {
  const Graph g = ConnectedGnm(256, 1024, 11);
  Params p;
  p.seed = 11;
  p.fingers = 1;
  Disco one(g, p);
  const auto m1 = MeasureOverlayMessaging(g, one);
  EXPECT_GT(m1.dissemination_messages, 0u);
  EXPECT_GT(m1.lookup_messages, 0u);

  p.fingers = 3;
  Disco three(g, p);
  const auto m3 = MeasureOverlayMessaging(g, three);
  // More fingers -> more lookups/links, same order of dissemination.
  EXPECT_GT(m3.lookup_messages, m1.lookup_messages);
  EXPECT_GT(m3.total(), m1.total());
}

}  // namespace
}  // namespace disco
