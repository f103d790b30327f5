// Regression guard for the RNG-stream-splitting contract: protocol
// construction and routing must produce bit-identical results whether the
// runtime pool has one thread or many. Every assertion here compares exact
// integers/doubles — no tolerances — because parallelism is only allowed
// to change wall-clock, never results.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "baselines/s4.h"
#include "baselines/vrr.h"
#include "core/disco.h"
#include "graph/generators.h"
#include "runtime/thread_pool.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace disco {
namespace {

constexpr NodeId kN = 512;
constexpr std::size_t kM = 2048;
constexpr std::uint64_t kSeed = 9001;

std::size_t WidePoolSize() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(4, hw == 0 ? 1 : hw);
}

Params TestParams() {
  Params p;
  p.seed = kSeed;
  return p;
}

// Fixed probe pairs, drawn independently of the pool under test.
std::vector<std::pair<NodeId, NodeId>> ProbePairs(std::size_t count) {
  Rng rng(kSeed ^ 0xabcdefULL);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < count) {
    const NodeId s = static_cast<NodeId>(rng.NextBelow(kN));
    const NodeId t = static_cast<NodeId>(rng.NextBelow(kN));
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

struct DiscoSnapshot {
  std::vector<NodeId> landmarks;
  std::vector<std::size_t> state_totals;
  std::vector<std::vector<NodeId>> first_paths;
  std::vector<std::vector<NodeId>> later_paths;
  std::vector<Dist> first_lengths;
};

DiscoSnapshot SnapshotDisco() {
  const Graph g = ConnectedGnm(kN, kM, kSeed);
  Disco disco(g, TestParams());
  DiscoSnapshot snap;
  snap.landmarks = disco.nd().landmarks().landmarks;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    snap.state_totals.push_back(disco.State(v).total());
  }
  for (const auto& [s, t] : ProbePairs(64)) {
    Route first = disco.RouteFirst(s, t);
    snap.first_paths.push_back(first.path);
    snap.first_lengths.push_back(first.length);
    snap.later_paths.push_back(disco.RouteLater(s, t).path);
  }
  return snap;
}

struct S4Snapshot {
  std::vector<std::size_t> cluster_sizes;
  std::vector<std::size_t> state_totals;
  std::vector<std::vector<NodeId>> first_paths;
  std::vector<std::vector<NodeId>> later_paths;
};

S4Snapshot SnapshotS4() {
  const Graph g = ConnectedGnm(kN, kM, kSeed);
  S4 s4(g, TestParams());
  S4Snapshot snap;
  snap.cluster_sizes = s4.ClusterSizes();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    snap.state_totals.push_back(s4.State(v).total());
  }
  for (const auto& [s, t] : ProbePairs(64)) {
    snap.first_paths.push_back(s4.RouteFirst(s, t).path);
    snap.later_paths.push_back(s4.RouteLater(s, t).path);
  }
  return snap;
}

struct VrrSnapshot {
  std::vector<std::size_t> state_totals;
  std::vector<std::vector<NodeId>> paths;
};

VrrSnapshot SnapshotVrr() {
  const Graph g = ConnectedGnm(kN, kM, kSeed);
  const Vrr vrr(g, TestParams());
  VrrSnapshot snap;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    snap.state_totals.push_back(vrr.State(v).total());
  }
  for (const auto& [s, t] : ProbePairs(64)) {
    snap.paths.push_back(vrr.RoutePacket(s, t).path);
  }
  return snap;
}

template <typename Snapshot, typename Fn>
void ExpectPoolInvariant(const Fn& snapshot_of, void (*check)(const Snapshot&,
                                                              const Snapshot&)) {
  runtime::ThreadPool::ResetShared(1);
  const Snapshot serial = snapshot_of();
  runtime::ThreadPool::ResetShared(WidePoolSize());
  const Snapshot wide = snapshot_of();
  runtime::ThreadPool::ResetShared(1);
  check(serial, wide);
}

TEST(ParallelDeterminism, DiscoConstructionAndRoutes) {
  ExpectPoolInvariant<DiscoSnapshot>(
      SnapshotDisco, +[](const DiscoSnapshot& a, const DiscoSnapshot& b) {
        EXPECT_EQ(a.landmarks, b.landmarks);
        EXPECT_EQ(a.state_totals, b.state_totals);
        EXPECT_EQ(a.first_paths, b.first_paths);
        EXPECT_EQ(a.later_paths, b.later_paths);
        EXPECT_EQ(a.first_lengths, b.first_lengths);
      });
}

TEST(ParallelDeterminism, S4ConstructionAndRoutes) {
  ExpectPoolInvariant<S4Snapshot>(
      SnapshotS4, +[](const S4Snapshot& a, const S4Snapshot& b) {
        EXPECT_EQ(a.cluster_sizes, b.cluster_sizes);
        EXPECT_EQ(a.state_totals, b.state_totals);
        EXPECT_EQ(a.first_paths, b.first_paths);
        EXPECT_EQ(a.later_paths, b.later_paths);
      });
}

TEST(ParallelDeterminism, VrrConstructionAndRoutes) {
  ExpectPoolInvariant<VrrSnapshot>(
      SnapshotVrr, +[](const VrrSnapshot& a, const VrrSnapshot& b) {
        EXPECT_EQ(a.state_totals, b.state_totals);
        EXPECT_EQ(a.paths, b.paths);
      });
}

TEST(ParallelDeterminism, MetricsHarness) {
  const Graph g = ConnectedGnm(kN, kM, kSeed);

  auto run = [&] {
    Disco disco(g, TestParams());
    auto stretch = SampleStretch(
        SamplePairs(g, 96, kSeed),
        [&](NodeId s, NodeId t) { return disco.RouteLater(s, t); });
    auto congestion = CongestionCounts(
        g, OneFlowPerNode(g.num_nodes(), kSeed),
        [&](NodeId s, NodeId t) { return disco.RouteLater(s, t); });
    return std::make_pair(std::move(stretch), std::move(congestion));
  };

  runtime::ThreadPool::ResetShared(1);
  const auto serial = run();
  runtime::ThreadPool::ResetShared(WidePoolSize());
  const auto wide = run();
  runtime::ThreadPool::ResetShared(1);

  EXPECT_EQ(serial.first, wide.first);
  EXPECT_EQ(serial.second, wide.second);
}

}  // namespace
}  // namespace disco
