// End-to-end checks of the full Disco stack against S4, VRR and
// shortest-path routing on all four topology families of §5.1 —
// the invariants behind every figure, at test scale.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/s4.h"
#include "baselines/spf.h"
#include "baselines/vrr.h"
#include "core/disco.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "sim/metrics.h"
#include "util/stats.h"

namespace disco {
namespace {

// In TopologyFamilies() order.
enum class Family { kGnm, kGeometric, kAsLevel, kRouterLevel };

Graph MakeFamily(Family f, NodeId n, std::uint64_t seed) {
  return MakeTopology(TopologyFamilies()[static_cast<int>(f)], n, seed);
}

class FullStack : public ::testing::TestWithParam<Family> {
 protected:
  static constexpr NodeId kN = 512;
  static constexpr std::uint64_t kSeed = 4242;
};

TEST_P(FullStack, DiscoRoutesEverywhereWithBoundedStretch) {
  const Graph g = MakeFamily(GetParam(), kN, kSeed);
  Params p;
  p.seed = kSeed;
  Disco disco(g, p);

  const PairSample pairs = SamplePairs(g, 300, kSeed);
  std::vector<StretchSample> details;
  const auto first = SampleStretch(
      pairs, [&](NodeId s, NodeId t) { return disco.RouteFirst(s, t); },
      &details);
  for (const auto& d : details) EXPECT_FALSE(d.failed);
  ASSERT_FALSE(first.empty());
  const Summary s = Summarize(first);
  EXPECT_LE(s.max, 7.0 + 1e-9);
  EXPECT_LT(s.mean, 2.5);

  const auto later = SampleStretch(
      pairs, [&](NodeId s2, NodeId t2) { return disco.RouteLater(s2, t2); });
  EXPECT_LE(Summarize(later).max, 3.0 + 1e-9);
}

TEST_P(FullStack, StateOrderingDiscoBalancedVrrSkewed) {
  const Graph g = MakeFamily(GetParam(), kN, kSeed + 1);
  Params p;
  p.seed = kSeed + 1;
  Disco disco(g, p);
  const Vrr vrr(g, p);

  std::vector<double> disco_state, vrr_state;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    disco_state.push_back(static_cast<double>(disco.State(v).total()));
    vrr_state.push_back(static_cast<double>(vrr.State(v).total()));
  }
  const Summary ds = Summarize(disco_state);
  const Summary vs = Summarize(vrr_state);
  // Disco's state distribution is tight; VRR's tail is long.
  EXPECT_LT(ds.max / ds.mean, 2.0);
  EXPECT_GT(vs.max / vs.mean, 3.0);
  // Disco stays well below the linear baseline at this size.
  const ShortestPathRouting spf(g);
  EXPECT_LT(ds.max, static_cast<double>(spf.State(0).total()) * 1.5);
}

TEST_P(FullStack, LaterPacketsBeatFirstOnAverage) {
  const Graph g = MakeFamily(GetParam(), kN, kSeed + 2);
  Params p;
  p.seed = kSeed + 2;
  Disco disco(g, p);
  const PairSample pairs = SamplePairs(g, 200, kSeed);
  const double mean_first = Summarize(SampleStretch(
      pairs, [&](NodeId s, NodeId t) { return disco.RouteFirst(s, t); }))
                                .mean;
  const double mean_later = Summarize(SampleStretch(
      pairs, [&](NodeId s, NodeId t) { return disco.RouteLater(s, t); }))
                                .mean;
  EXPECT_LE(mean_later, mean_first + 1e-9);
}

TEST_P(FullStack, CongestionStaysNearShortestPath) {
  const Graph g = MakeFamily(GetParam(), kN, kSeed + 3);
  Params p;
  p.seed = kSeed + 3;
  Disco disco(g, p);
  ShortestPathRouting spf(g);

  const std::vector<Flow> flows = OneFlowPerNode(g.num_nodes(), kSeed);
  const auto disco_counts = CongestionCounts(
      g, flows, [&](NodeId s, NodeId t) { return disco.RouteLater(s, t); });
  const auto spf_counts = CongestionCounts(
      g, flows, [&](NodeId s, NodeId t) { return spf.RoutePacket(s, t); });
  std::size_t disco_max = 0, spf_max = 0;
  for (const auto c : disco_counts) disco_max = std::max(disco_max, c);
  for (const auto c : spf_counts) spf_max = std::max(spf_max, c);
  // §5.2: compact routing's worst edge stays within a small factor of
  // shortest-path routing's worst edge.
  EXPECT_LT(disco_max, 6 * spf_max + 10);
}

INSTANTIATE_TEST_SUITE_P(Families, FullStack,
                         ::testing::Values(Family::kGnm, Family::kGeometric,
                                           Family::kAsLevel,
                                           Family::kRouterLevel));

TEST(Integration, S4StateExplodesWhereNdDiscoDoesNot) {
  // The Fig. 2/7 story end to end: on a hub-dominated map, S4's maximum
  // state blows past its name-dependent counterpart NDDisco ("a fairer
  // comparison with S4 since both protocols are name-dependent", §5.2),
  // whose vicinities are capped by construction.
  const Graph g = AsLevelInternet(2048, 77);
  Params p;
  p.seed = 77;
  Disco disco(g, p);
  S4 s4(g, p);
  std::size_t s4_max = 0, nd_max = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    s4_max = std::max(s4_max, s4.State(v).total());
    nd_max = std::max(nd_max, disco.nd().State(v).total());
  }
  EXPECT_GT(s4_max, 2 * nd_max);
}

TEST(Integration, DiscoFirstPacketBeatsS4FirstPacketOnStretch) {
  // Fig. 3's qualitative claim on the latency-annotated topology.
  const Graph g = ConnectedGeometric(1024, 8.0, 99);
  Params p;
  p.seed = 99;
  Disco disco(g, p);
  S4 s4(g, p);
  const PairSample pairs = SamplePairs(g, 400, 99);
  const auto ds = Summarize(SampleStretch(
      pairs, [&](NodeId s, NodeId t) { return disco.RouteFirst(s, t); }));
  const auto ss = Summarize(SampleStretch(
      pairs, [&](NodeId s, NodeId t) { return s4.RouteFirst(s, t); }));
  EXPECT_LT(ds.max, ss.max);
  EXPECT_LT(ds.mean, ss.mean);
}

}  // namespace
}  // namespace disco
