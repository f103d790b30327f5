// Scenario + campaign layer tests: schedules are deterministic per
// (seed, replica) and replayable, replica results are independent of the
// replica count and of the executor's thread count, every scenario kind
// re-converges, and the wire round-trip for replica results is the
// identity.
#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "runtime/thread_pool.h"
#include "sim/campaign.h"
#include "sim/pv_sim.h"

namespace disco {
namespace {

ScenarioSpec Spec(const std::string& kind) {
  ScenarioSpec spec;
  spec.kind = kind;
  spec.events = 2;
  spec.fraction = 0.08;
  spec.start = 30.0;
  spec.spacing = 4.0;
  return spec;
}

bool SameEvents(const std::vector<ScenarioEvent>& a,
                const std::vector<ScenarioEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].node_leaves != b[i].node_leaves ||
        a[i].node_joins != b[i].node_joins ||
        a[i].link_fails != b[i].link_fails ||
        a[i].link_heals != b[i].link_heals) {
      return false;
    }
  }
  return true;
}

TEST(ScenarioTest, NullAndEmptySpecsCompileToNoEvents) {
  const Graph g = ConnectedGnm(64, 256, 1);
  EXPECT_TRUE(Scenario::Compile(Spec("null"), g, 1, 0).empty());
  ScenarioSpec zero = Spec("churn");
  zero.events = 0;
  EXPECT_TRUE(Scenario::Compile(zero, g, 1, 0).empty());
}

TEST(ScenarioTest, EdgelessGraphsCompileToNoLinkEvents) {
  // A graph with nodes but no links has nothing for the link-drawing
  // kinds to disturb; Compile must return an empty schedule instead of
  // drawing from an empty edge set.
  const Graph g = Graph::FromEdges(4, {});
  for (const char* kind : {"linkfail", "correlated", "partition"}) {
    ScenarioSpec spec = Spec(kind);
    EXPECT_TRUE(Scenario::Compile(spec, g, 1, 0).empty()) << kind;
  }
  EXPECT_FALSE(Scenario::Compile(Spec("churn"), g, 1, 0).empty());
}

TEST(ScenarioTest, KindsAreRegistered) {
  for (const std::string& kind : ScenarioKinds()) {
    EXPECT_TRUE(IsScenarioKind(kind)) << kind;
  }
  EXPECT_FALSE(IsScenarioKind("no-such-scenario"));
}

TEST(ScenarioTest, CompileIsDeterministicAndReplayable) {
  const Graph g = ConnectedGnm(96, 384, 3);
  for (const std::string& kind : ScenarioKinds()) {
    if (kind == "null") continue;
    const Scenario a = Scenario::Compile(Spec(kind), g, 7, 2);
    const Scenario b = Scenario::Compile(Spec(kind), g, 7, 2);
    EXPECT_TRUE(SameEvents(a.events(), b.events())) << kind;
    ASSERT_FALSE(a.empty()) << kind;
  }
}

TEST(ScenarioTest, ReplicasAndSeedsDrawIndependentSchedules) {
  const Graph g = ConnectedGnm(96, 384, 3);
  const Scenario base = Scenario::Compile(Spec("churn"), g, 7, 0);
  const Scenario other_replica = Scenario::Compile(Spec("churn"), g, 7, 1);
  const Scenario other_seed = Scenario::Compile(Spec("churn"), g, 8, 0);
  EXPECT_FALSE(SameEvents(base.events(), other_replica.events()));
  EXPECT_FALSE(SameEvents(base.events(), other_seed.events()));
}

TEST(ScenarioTest, EventsAreOrderedAndPaired) {
  const Graph g = ConnectedGnm(96, 384, 5);
  for (const std::string& kind : ScenarioKinds()) {
    if (kind == "null") continue;
    const Scenario sc = Scenario::Compile(Spec(kind), g, 9, 1);
    double last = 0;
    for (const ScenarioEvent& ev : sc.events()) {
      EXPECT_GT(ev.time, last) << kind;
      last = ev.time;
    }
    // Healing scenarios restore the original topology exactly.
    EXPECT_TRUE(sc.FinalDepartedNodes().empty()) << kind;
    EXPECT_TRUE(sc.FinalFailedLinks().empty()) << kind;
  }
}

TEST(ScenarioTest, NoHealLeavesAResidualDisturbance) {
  const Graph g = ConnectedGnm(96, 384, 5);
  ScenarioSpec spec = Spec("churn");
  spec.heal = false;
  const Scenario sc = Scenario::Compile(spec, g, 9, 0);
  EXPECT_FALSE(sc.FinalDepartedNodes().empty());

  ScenarioSpec links = Spec("linkfail");
  links.heal = false;
  EXPECT_FALSE(Scenario::Compile(links, g, 9, 0).FinalFailedLinks()
                   .empty());
}

// Every scenario kind must run to quiescence with re-validated tables:
// after a healing scenario the path-vector plane ends on exactly the
// static shortest-path tables it would have converged to without any
// disturbance.
TEST(ScenarioTest, EveryKindReconvergesToShortestPaths) {
  const Graph g = ConnectedGnm(80, 320, 11);
  for (const std::string& kind : ScenarioKinds()) {
    if (kind == "null") continue;
    CampaignSpec spec;
    spec.graph = &g;
    spec.base.mode = PvMode::kPathVector;
    spec.base.params.seed = 11;
    spec.scenario = Spec(kind);
    PvResult sim;
    RunReplica(spec, 0, &sim);
    for (NodeId v = 0; v < g.num_nodes(); v += 7) {
      const auto truth = Dijkstra(g, v);
      ASSERT_EQ(sim.tables[v].size(), g.num_nodes()) << kind << " " << v;
      for (const auto& [origin, dist] : sim.tables[v]) {
        EXPECT_NEAR(dist, truth.dist[origin], 1e-9)
            << kind << ": " << v << " -> " << origin;
      }
    }
    ASSERT_GE(sim.trace.size(), 2u) << kind;
  }
}

TEST(ScenarioTest, ChurnWithoutHealEndsWithDepartedNodesFlushed) {
  const Graph g = ConnectedGnm(80, 320, 13);
  CampaignSpec spec;
  spec.graph = &g;
  spec.base.mode = PvMode::kPathVector;
  spec.base.params.seed = 13;
  spec.scenario = Spec("churn");
  spec.scenario.heal = false;
  PvResult sim;
  RunReplica(spec, 0, &sim);
  const Scenario sc = Scenario::Compile(spec.scenario, g, 13, 0);
  const auto departed = sc.FinalDepartedNodes();
  ASSERT_FALSE(departed.empty());
  for (const NodeId v : departed) {
    EXPECT_EQ(sim.alive[v], 0) << v;
    EXPECT_TRUE(sim.tables[v].empty()) << v;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!sim.alive[v]) continue;
    for (const auto& [origin, dist] : sim.tables[v]) {
      EXPECT_TRUE(sim.alive[origin])
          << v << " still routes to departed " << origin;
      (void)dist;
    }
  }
}

// Replica r's result may depend on nothing but (campaign, r): running 2 or
// 5 replicas must reproduce the same leading results bit for bit.
TEST(CampaignTest, ReplicaResultsAreIndependentOfReplicaCount) {
  const Graph g = ConnectedGnm(64, 256, 17);
  CampaignSpec spec;
  spec.graph = &g;
  spec.base.mode = PvMode::kNdDisco;
  spec.base.params.seed = 17;
  spec.scenario = Spec("linkfail");
  exec::ExecOptions opts;  // thread backend
  std::vector<std::vector<ReplicaResult>> two, five;
  std::string error;
  ASSERT_TRUE(RunReplicas({spec}, 2, opts, &two, &error)) << error;
  ASSERT_TRUE(RunReplicas({spec}, 5, opts, &five, &error)) << error;
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(EncodeReplicaResult(two[0][r]),
              EncodeReplicaResult(five[0][r]))
        << "replica " << r;
  }
}

TEST(CampaignTest, ResultsAreInvariantToExecutorThreadCount) {
  const Graph g = ConnectedGnm(64, 256, 19);
  CampaignSpec spec;
  spec.graph = &g;
  spec.base.mode = PvMode::kS4;
  spec.base.params.seed = 19;
  spec.scenario = Spec("correlated");
  runtime::ThreadPool one(1);
  exec::ExecOptions serial;
  serial.pool = &one;
  exec::ExecOptions wide;  // shared pool
  std::vector<std::vector<ReplicaResult>> a, b;
  std::string error;
  ASSERT_TRUE(RunReplicas({spec}, 4, serial, &a, &error)) << error;
  ASSERT_TRUE(RunReplicas({spec}, 4, wide, &b, &error)) << error;
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(EncodeReplicaResult(a[0][r]), EncodeReplicaResult(b[0][r]));
  }
}

TEST(CampaignTest, ReplicaSeedContinuesBaseStreamAtZero) {
  EXPECT_EQ(ReplicaSeed(42, 0), 42u);
  EXPECT_NE(ReplicaSeed(42, 1), ReplicaSeed(42, 2));
  EXPECT_NE(ReplicaSeed(42, 1), ReplicaSeed(43, 1));
}

TEST(CampaignTest, WireRoundTripIsIdentity) {
  ReplicaResult r;
  r.convergence_time = 123.456;
  r.total_messages = 98765;
  r.messages_per_node = 1.5e-3;
  r.total_withdrawals = 17;
  r.table_stretch = 1.0000001;
  r.table_coverage = 0.75;
  r.trace = {{30.0, 100, 3, 640}, {34.5, 180, 9, 512}};
  ReplicaResult back;
  ASSERT_TRUE(DecodeReplicaResult(EncodeReplicaResult(r), &back));
  EXPECT_EQ(EncodeReplicaResult(back), EncodeReplicaResult(r));
  ASSERT_EQ(back.trace.size(), 2u);
  EXPECT_EQ(back.trace[1].messages, 180u);

  ReplicaResult bad;
  EXPECT_FALSE(DecodeReplicaResult("short", &bad));
}

TEST(CampaignTest, TracesAreMonotoneInMessagesAndTime) {
  const Graph g = ConnectedGnm(80, 320, 23);
  for (const char* kind : {"churn", "partition"}) {
    CampaignSpec spec;
    spec.graph = &g;
    spec.base.mode = PvMode::kPathVector;
    spec.base.params.seed = 23;
    spec.scenario = Spec(kind);
    const ReplicaResult r = RunReplica(spec, 0);
    ASSERT_GE(r.trace.size(), 2u);
    for (std::size_t i = 1; i < r.trace.size(); ++i) {
      EXPECT_GE(r.trace[i].messages, r.trace[i - 1].messages) << kind;
      EXPECT_GE(r.trace[i].withdrawals, r.trace[i - 1].withdrawals)
          << kind;
      EXPECT_GE(r.trace[i].time, r.trace[i - 1].time) << kind;
    }
    EXPECT_EQ(r.trace.back().messages, r.total_messages) << kind;
  }
}

TEST(CampaignTest, HealedCampaignStretchIsExactlyOne) {
  const Graph g = ConnectedGnm(64, 256, 29);
  CampaignSpec spec;
  spec.graph = &g;
  spec.base.mode = PvMode::kPathVector;
  spec.base.params.seed = 29;
  spec.scenario = Spec("linkfail");
  const ReplicaResult r = RunReplica(spec, 0);
  EXPECT_GT(r.table_coverage, 0.99);
  EXPECT_NEAR(r.table_stretch, 1.0, 1e-9);
}

TEST(CampaignTest, TsvReductionFormatsMeanAndSd) {
  ReplicaResult a, b;
  a.convergence_time = 10;
  b.convergence_time = 20;
  a.messages_per_node = 4;
  b.messages_per_node = 6;
  const MeanSd conv = ReduceConvergenceTime({a, b});
  EXPECT_DOUBLE_EQ(conv.mean, 15.0);
  EXPECT_DOUBLE_EQ(conv.sd, 5.0);
  const std::string header = CampaignTsvHeader();
  const std::string row = CampaignTsvRow("pv-128", "churn", {a, b});
  EXPECT_EQ(std::count(header.begin(), header.end(), '\t'),
            std::count(row.begin(), row.end(), '\t'));
  EXPECT_EQ(row.compare(0, 16, "pv-128\tchurn\t2\t1"), 0) << row;
  EXPECT_EQ(row.back(), '\n');
  EXPECT_TRUE(MeanStddev({}).mean == 0 && MeanStddev({}).sd == 0);
}

TEST(CampaignTest, PvModeForSchemeMapsTheBuiltins) {
  EXPECT_EQ(PvModeForScheme("disco"), PvMode::kNdDisco);
  EXPECT_EQ(PvModeForScheme("nddisco"), PvMode::kNdDisco);
  EXPECT_EQ(PvModeForScheme("s4"), PvMode::kS4);
  EXPECT_EQ(PvModeForScheme("vrr"), PvMode::kPathVector);
  EXPECT_EQ(PvModeForScheme("spf"), PvMode::kPathVector);
  EXPECT_EQ(PvModeForScheme("custom-thing"), PvMode::kPathVector);
}

}  // namespace
}  // namespace disco
