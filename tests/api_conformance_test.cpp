// Conformance suite for the RoutingScheme API: every registered scheme,
// driven purely through the registry, must route successfully with
// stretch ≥ 1, report positive state, agree with its registry metadata,
// and behave identically across two separately built instances with the
// same seed (the API's determinism contract).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/routing_scheme.h"
#include "api/schemes.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "sim/campaign.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace disco {
namespace {

constexpr NodeId kN = 256;
constexpr std::uint64_t kSeed = 7;

Graph TestGraph() { return ConnectedGnm(kN, 4ull * kN, kSeed); }

Params TestParams() {
  Params p;
  p.seed = kSeed;
  return p;
}

bool AreAdjacent(const Graph& g, NodeId a, NodeId b) {
  for (const Neighbor& nb : g.neighbors(a)) {
    if (nb.to == b) return true;
  }
  return false;
}

std::vector<std::pair<NodeId, NodeId>> SamplePairs(NodeId n,
                                                   std::size_t count) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng rng(0x5eedULL);
  while (pairs.size() < count) {
    const NodeId s = static_cast<NodeId>(rng.NextBelow(n));
    const NodeId t = static_cast<NodeId>(rng.NextBelow(n));
    if (s != t) pairs.push_back({s, t});
  }
  return pairs;
}

class SchemeConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(SchemeConformance, MetadataMatchesRegistry) {
  const Graph g = TestGraph();
  const auto scheme = api::MakeScheme(GetParam(), g, TestParams());
  ASSERT_NE(scheme, nullptr);
  const api::SchemeInfo* info = api::GetSchemeInfo(GetParam());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(scheme->name(), info->name);
  EXPECT_EQ(scheme->label(), info->label);
  EXPECT_EQ(scheme->short_name(), info->short_name);
  EXPECT_EQ(scheme->distinguishes_first_packet(),
            info->distinguishes_first_packet);
  EXPECT_EQ(scheme->graph().num_nodes(), g.num_nodes());
}

TEST_P(SchemeConformance, RoutesAreValidWithStretchAtLeastOne) {
  const Graph g = TestGraph();
  const auto scheme = api::MakeScheme(GetParam(), g, TestParams());
  ASSERT_NE(scheme, nullptr);

  for (const auto& [s, t] : SamplePairs(g.num_nodes(), 40)) {
    for (const api::Phase phase : {api::Phase::kFirst, api::Phase::kLater}) {
      const Route r = scheme->route_fn(phase)(s, t);
      ASSERT_TRUE(r.ok()) << scheme->name() << " failed " << s << "->" << t;
      EXPECT_EQ(r.path.front(), s);
      EXPECT_EQ(r.path.back(), t);
      for (std::size_t h = 0; h + 1 < r.path.size(); ++h) {
        ASSERT_TRUE(AreAdjacent(g, r.path[h], r.path[h + 1]))
            << scheme->name() << ": hop " << r.path[h] << "->"
            << r.path[h + 1] << " is not an edge";
      }
    }
  }

  const PairSample pairs = SamplePairs(g, 60, 11);
  for (const api::Phase phase : {api::Phase::kFirst, api::Phase::kLater}) {
    std::vector<StretchSample> details;
    const auto stretch =
        SampleStretch(pairs, scheme->route_fn(phase), &details);
    for (const auto& d : details) {
      EXPECT_FALSE(d.failed) << scheme->name();
    }
    ASSERT_FALSE(stretch.empty());
    for (const double x : stretch) {
      EXPECT_GE(x, 1.0 - 1e-9) << scheme->name();
    }
  }
}

TEST_P(SchemeConformance, StateIsPositiveForEveryNode) {
  const Graph g = TestGraph();
  const auto scheme = api::MakeScheme(GetParam(), g, TestParams());
  ASSERT_NE(scheme, nullptr);
  const std::vector<double> state = scheme->CollectState();
  ASSERT_EQ(state.size(), g.num_nodes());
  for (std::size_t v = 0; v < state.size(); ++v) {
    EXPECT_GT(state[v], 0.0) << scheme->name() << " node " << v;
  }
  for (const double nb : {4.0, 16.0}) {
    EXPECT_GT(scheme->StateBytes(0, nb), 0.0) << scheme->name();
  }
}

TEST_P(SchemeConformance, TwoBuildsWithSameSeedAreIdentical) {
  const Graph g = TestGraph();
  auto a = api::MakeScheme(GetParam(), g, TestParams());
  auto b = api::MakeScheme(GetParam(), g, TestParams());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  // Prewarming one instance but not the other must not change anything
  // either (wall-clock only).
  a->PrewarmFor(a->AllNodes());

  EXPECT_EQ(a->CollectState(), b->CollectState());
  for (const auto& [s, t] : SamplePairs(g.num_nodes(), 25)) {
    for (const api::Phase phase : {api::Phase::kFirst, api::Phase::kLater}) {
      const Route ra = a->route_fn(phase)(s, t);
      const Route rb = b->route_fn(phase)(s, t);
      EXPECT_EQ(ra.path, rb.path) << GetParam() << " " << s << "->" << t;
      EXPECT_EQ(ra.length, rb.length);
    }
  }
}

// Dynamics conformance: every registered scheme's protocol plane must
// survive a small churn scenario that leaves some members departed — the
// simulation quiesces, departed nodes end flushed, no surviving table
// routes toward a departed origin, and every surviving next hop is a live
// neighbor. This is the API-level guarantee the sweep's scenario axis
// relies on.
TEST_P(SchemeConformance, SurvivesChurnWithoutRoutingToDepartedNodes) {
  const Graph g = TestGraph();
  ScenarioSpec scenario;
  scenario.kind = "churn";
  scenario.events = 2;
  scenario.fraction = 0.08;
  scenario.start = 25.0;
  scenario.spacing = 4.0;
  scenario.heal = false;  // the last batch of leavers stays gone

  CampaignSpec spec;
  spec.graph = &g;
  spec.base.mode = PvModeForScheme(GetParam());
  spec.base.params = TestParams();
  spec.base.keep_next_hops = true;
  spec.scenario = scenario;
  PvResult sim;
  RunReplica(spec, 0, &sim);

  const Scenario sc = Scenario::Compile(scenario, g, kSeed, 0);
  const auto departed = sc.FinalDepartedNodes();
  ASSERT_FALSE(departed.empty());
  std::vector<char> gone(g.num_nodes(), 0);
  for (const NodeId v : departed) gone[v] = 1;

  for (const NodeId v : departed) {
    EXPECT_EQ(sim.alive[v], 0) << GetParam() << " node " << v;
    EXPECT_TRUE(sim.tables[v].empty()) << GetParam() << " node " << v;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!sim.alive[v]) continue;
    EXPECT_FALSE(sim.tables[v].empty()) << GetParam() << " node " << v;
    for (const auto& [origin, dist] : sim.tables[v]) {
      EXPECT_FALSE(gone[origin])
          << GetParam() << ": " << v << " still holds departed origin "
          << origin;
      if (origin == v) continue;
      const NodeId hop = sim.next_hops[v].at(origin);
      EXPECT_FALSE(gone[hop])
          << GetParam() << ": " << v << " -> " << origin
          << " next hop is departed node " << hop;
      (void)dist;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, SchemeConformance,
                         ::testing::ValuesIn(api::RegisteredSchemes()));

TEST(SchemeRegistry, KnowsTheBuiltins) {
  const auto names = api::RegisteredSchemes();
  const std::vector<std::string> expected = {"disco", "nddisco", "s4",
                                             "vrr", "spf"};
  for (const std::string& name : expected) {
    EXPECT_TRUE(api::IsRegisteredScheme(name)) << name;
  }
  EXPECT_GE(names.size(), expected.size());
  EXPECT_FALSE(api::IsRegisteredScheme("no-such-scheme"));
}

TEST(SchemeRegistry, UnknownNamesFailCleanly) {
  const Graph g = ConnectedGnm(64, 256, 1);
  EXPECT_EQ(api::MakeScheme("no-such-scheme", g, Params{}), nullptr);
  EXPECT_TRUE(api::MakeSchemes({"disco", "no-such-scheme"}, g, Params{})
                  .empty());
}

TEST(SchemeRegistry, BatchConstructionMatchesSingles) {
  const Graph g = ConnectedGnm(128, 512, 3);
  Params p;
  p.seed = 3;
  // The batch shares one Disco between the disco and nddisco views; the
  // results must be indistinguishable from standalone construction.
  auto batch = api::MakeSchemes({"disco", "nddisco"}, g, p);
  ASSERT_EQ(batch.size(), 2u);
  auto solo_disco = api::MakeScheme("disco", g, p);
  auto solo_nd = api::MakeScheme("nddisco", g, p);
  EXPECT_EQ(batch[0]->CollectState(), solo_disco->CollectState());
  EXPECT_EQ(batch[1]->CollectState(), solo_nd->CollectState());
}

TEST(SchemeRegistry, SplitSchemeList) {
  EXPECT_EQ(api::SplitSchemeList("disco,s4,vrr"),
            (std::vector<std::string>{"disco", "s4", "vrr"}));
  EXPECT_EQ(api::SplitSchemeList("disco"),
            (std::vector<std::string>{"disco"}));
  EXPECT_EQ(api::SplitSchemeList(",disco,,s4,"),
            (std::vector<std::string>{"disco", "s4"}));
  EXPECT_TRUE(api::SplitSchemeList("").empty());
}

}  // namespace
}  // namespace disco
