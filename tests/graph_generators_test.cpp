#include "graph/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "graph/io.h"
#include "graph/shortest_path.h"
#include "runtime/thread_pool.h"

namespace disco {
namespace {

// Runs `make` under a 1-thread pool and a wide pool and asserts the two
// graphs are bit-identical — the contract of the chunked parallel
// generators (per-chunk RNG streams, chunk-major merges).
void ExpectThreadCountInvariant(const std::function<Graph()>& make) {
  runtime::ThreadPool::ResetShared(1);
  const Graph sequential = make();
  runtime::ThreadPool::ResetShared(8);
  const Graph parallel = make();
  runtime::ThreadPool::ResetShared(runtime::DefaultThreadCount());
  ASSERT_EQ(sequential.num_nodes(), parallel.num_nodes());
  ASSERT_EQ(sequential.num_edges(), parallel.num_edges());
  for (EdgeId e = 0; e < sequential.num_edges(); ++e) {
    ASSERT_EQ(sequential.edge(e).a, parallel.edge(e).a) << "edge " << e;
    ASSERT_EQ(sequential.edge(e).b, parallel.edge(e).b) << "edge " << e;
    ASSERT_EQ(sequential.edge(e).weight, parallel.edge(e).weight)
        << "edge " << e;
  }
}

TEST(Gnm, ExactEdgeCount) {
  const Graph g = Gnm(100, 400, 1);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 400u);
}

TEST(Gnm, NoDuplicateEdgesOrSelfLoops) {
  const Graph g = Gnm(50, 200, 2);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    auto [a, b, w] = g.edge(e);
    EXPECT_NE(a, b);
    const auto key = std::minmax(a, b);
    EXPECT_TRUE(seen.insert(key).second) << a << "-" << b;
  }
}

TEST(Gnm, DeterministicPerSeed) {
  const Graph a = Gnm(64, 256, 5), b = Gnm(64, 256, 5);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).a, b.edge(e).a);
    EXPECT_EQ(a.edge(e).b, b.edge(e).b);
  }
}

TEST(Gnm, BitIdenticalAcrossThreadCounts) {
  // Multi-chunk (m > one 8192-edge chunk), so the parallel path really
  // fans out and the cross-chunk dedup + top-up stream is exercised.
  ExpectThreadCountInvariant([] { return Gnm(20000, 40000, 3); });
}

TEST(Gnm, ConnectedVariantIsConnected) {
  // Sparse enough that G(n,m) is often disconnected.
  const Graph g = ConnectedGnm(200, 220, 3);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_LE(g.num_nodes(), 200u);
  EXPECT_GT(g.num_nodes(), 100u);  // the LCC should dominate at this density
}

TEST(Geometric, WeightsAreEuclidean) {
  const Graph g = RandomGeometric(500, 8.0, 7);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_GT(g.edge(e).weight, 0.0);
    EXPECT_LT(g.edge(e).weight, 0.2);  // radius for avg degree 8 at n=500
  }
}

TEST(Geometric, AverageDegreeNearTarget) {
  const Graph g = RandomGeometric(4096, 8.0, 11);
  const double avg = 2.0 * static_cast<double>(g.num_edges()) /
                     static_cast<double>(g.num_nodes());
  EXPECT_GT(avg, 5.5);
  EXPECT_LT(avg, 10.5);
}

TEST(Geometric, BitIdenticalAcrossThreadCounts) {
  // Multi-chunk (n > one 8192-node chunk): per-chunk coordinate streams
  // and the chunk-major edge concatenation must be schedule-independent.
  ExpectThreadCountInvariant(
      [] { return RandomGeometric(20000, 8.0, 3); });
}

TEST(Geometric, ConnectedVariantIsConnected) {
  EXPECT_TRUE(IsConnected(ConnectedGeometric(1024, 8.0, 13)));
}

TEST(BarabasiAlbert, ConnectedWithHeavyTail) {
  const Graph g = BarabasiAlbert(2048, 2, 17);
  EXPECT_TRUE(IsConnected(g));
  std::uint32_t max_degree = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  // Preferential attachment: hubs with degree ~sqrt(n) scale.
  EXPECT_GT(max_degree, 40u);
  const double avg = 2.0 * static_cast<double>(g.num_edges()) /
                     static_cast<double>(g.num_nodes());
  EXPECT_NEAR(avg, 4.0, 0.5);  // m = 2 -> avg degree ~4
}

TEST(BarabasiAlbert, MinimumDegreeIsM) {
  const Graph g = BarabasiAlbert(256, 3, 19);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_GE(g.degree(v), 3u);
}

TEST(AsLevel, MatchesBarabasiAlbertShape) {
  const Graph g = AsLevelInternet(1024, 23);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_EQ(g.num_nodes(), 1024u);
}

TEST(RouterLevel, ConnectedAndModerateDegrees) {
  const Graph g = RouterLevelInternet(4096, 29);
  EXPECT_EQ(g.num_nodes(), 4096u);
  EXPECT_TRUE(IsConnected(g));
  std::uint32_t max_degree = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  // Router maps have bounded hubs compared to AS maps.
  EXPECT_LT(max_degree, 200u);
}

TEST(RouterLevel, PathsLongerThanAsLevel) {
  // The two-level structure must produce longer typical paths than the
  // AS-like map at the same size (this drives address sizes, §4.2).
  const Graph router = RouterLevelInternet(2048, 31);
  const Graph as = AsLevelInternet(2048, 31);
  const auto rt = Dijkstra(router, 0);
  const auto at = Dijkstra(as, 0);
  double rsum = 0, asum = 0;
  for (NodeId v = 0; v < 2048; ++v) {
    rsum += rt.dist[v];
    asum += at.dist[v];
  }
  EXPECT_GT(rsum, asum);
}

TEST(Ring, StructureAndDiameter) {
  const Graph g = Ring(16);
  EXPECT_EQ(g.num_edges(), 16u);
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_DOUBLE_EQ(Dijkstra(g, 0).dist[8], 8.0);
}

TEST(Grid, StructureAndDistances) {
  const Graph g = Grid(4, 5);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_EQ(g.num_edges(), 4u * 4 + 3u * 5);  // horizontal + vertical
  EXPECT_DOUBLE_EQ(Dijkstra(g, 0).dist[19], 3.0 + 4.0);  // Manhattan
}

TEST(S4WorstCaseTree, ShapeMatchesFootnote6) {
  const NodeId b = 10;
  const Graph g = S4WorstCaseTree(b);
  EXPECT_EQ(g.num_nodes(), 1 + b + b * b);
  EXPECT_EQ(g.degree(0), b);  // root
  const auto t = Dijkstra(g, 0);
  for (NodeId c = 1; c <= b; ++c) EXPECT_DOUBLE_EQ(t.dist[c], 1.0);
  for (NodeId gc = b + 1; gc < g.num_nodes(); ++gc) {
    EXPECT_DOUBLE_EQ(t.dist[gc], 3.0);  // 1 (root-child) + 2 (child-gc)
  }
}

// Golden fingerprints captured from the edge-vector builds that predate
// the streaming-CSR generator rewrite. Every generator family at every
// interesting scale — single-chunk, multi-chunk (>8192 nodes/edges, so
// the chunked RNG streams and the parallel CSR build really engage), the
// connected variants, and the fixed topologies — must reproduce these
// graphs bit for bit: same edge order, same weights, same everything the
// fingerprint serializes.
struct GoldenGraph {
  const char* name;
  std::function<Graph()> make;
  NodeId n;
  std::size_t m;
  const char* fingerprint;
};

const std::vector<GoldenGraph>& Goldens() {
  static const std::vector<GoldenGraph> rows = {
      {"gnm_small", [] { return Gnm(100, 400, 1); }, 100, 400,
       "b50f5056944ce7752a8366b2a2147ff309c0200e3efda1c7ad9372a29d6e35f4"},
      {"gnm_multi", [] { return Gnm(20000, 40000, 3); }, 20000, 40000,
       "781732040f6f0f73e91a9cf9a48e3649160990689cfd9e4039dd6c11e0933b69"},
      {"geo_small", [] { return RandomGeometric(500, 8.0, 7); }, 500, 1879,
       "e3db46f86f24fcf6fe76083dc55fac43d9693b650204e7aea31128b517204c4a"},
      {"geo_multi", [] { return RandomGeometric(20000, 8.0, 3); }, 20000,
       79231,
       "9d7e2064e75d9cf06b4024ed57c4719ed413568dd5e9262386bf83ed04b60b09"},
      {"ba_small", [] { return BarabasiAlbert(256, 3, 19); }, 256, 762,
       "821228809a8a1730bfe980b9d4afe3fbc32edfda3436622fcb437d9636b1a9d3"},
      {"ba_multi", [] { return BarabasiAlbert(20000, 2, 7); }, 20000, 39997,
       "527e8bf55b5fffd41edddafd71fa8cb27199b5e8ea83869c0fa57d35d91836ed"},
      {"router_small", [] { return RouterLevelInternet(256, 4); }, 256, 364,
       "3a054310fad8f8d79b0dc72c2e74ea493ed2c6095c4405df2196d403ccd9eca4"},
      {"router_multi", [] { return RouterLevelInternet(20000, 11); }, 20000,
       28309,
       "1903cb827ba98901fcf32b6e3808824ecf8d01628d8c5a05502069e894524bf8"},
      {"cgnm_multi", [] { return ConnectedGnm(20000, 30000, 9); }, 18845,
       29897,
       "c759466ece0d267db9054bc756dba132ec295cd64515aeb61dbd5b69a5a445ec"},
      {"cgeo_multi", [] { return ConnectedGeometric(20000, 8.0, 5); },
       19964, 78852,
       "968b3c0118326f29a33958fc053954e585142d4f857889dba6578eef5a795618"},
      {"ring", [] { return Ring(16); }, 16, 16,
       "88aa775ca7d8d2438204aebe7b29a44226e201ea7b5970694a68481e20dab371"},
      {"grid", [] { return Grid(4, 5); }, 20, 31,
       "2ce73f0d93769efafbd87f659f0de9e4dbe1b14d9f642528b7b44ea8406ac476"},
      {"s4tree", [] { return S4WorstCaseTree(10); }, 111, 110,
       "1711dbc78ffeaad0b1846e0e739c6d706bee8068adb1cec5dda7ce0fdc0912de"},
  };
  return rows;
}

TEST(GeneratorGoldens, FingerprintsMatchPreCsrBuilds) {
  for (const GoldenGraph& row : Goldens()) {
    const Graph g = row.make();
    EXPECT_EQ(g.num_nodes(), row.n) << row.name;
    EXPECT_EQ(g.num_edges(), row.m) << row.name;
    EXPECT_EQ(GraphFingerprintHex(g), row.fingerprint) << row.name;
  }
}

TEST(GeneratorGoldens, FingerprintsInvariantAcrossThreadCounts) {
  // The same goldens under a 1-thread and a wide pool: neither the
  // chunked generator fan-outs nor the parallel CSR build may let the
  // schedule leak into the graph.
  for (const int threads : {1, 8}) {
    runtime::ThreadPool::ResetShared(threads);
    for (const GoldenGraph& row : Goldens()) {
      EXPECT_EQ(GraphFingerprintHex(row.make()), row.fingerprint)
          << row.name << " with " << threads << " thread(s)";
    }
  }
  runtime::ThreadPool::ResetShared(runtime::DefaultThreadCount());
}

TEST(TopologyFamilies, MakeTopologyMatchesTheGenerators) {
  // The one family table every run's --topo/--topos name goes through
  // must build exactly the generator its documentation names.
  const std::vector<std::pair<std::string, Graph>> direct = {
      {"gnm", ConnectedGnm(300, 1200, 5)},
      {"geo", ConnectedGeometric(300, 8.0, 5)},
      {"as", AsLevelInternet(300, 5)},
      {"router", RouterLevelInternet(300, 5)},
  };
  ASSERT_EQ(TopologyFamilies().size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const auto& [family, g] = direct[i];
    EXPECT_EQ(TopologyFamilies()[i], family);
    EXPECT_EQ(GraphFingerprintHex(MakeTopology(family, 300, 5)),
              GraphFingerprintHex(g))
        << family;
  }
  const Graph unknown = MakeTopology("no-such-family", 300, 5);
  EXPECT_EQ(unknown.num_nodes(), 0u);
  EXPECT_EQ(unknown.num_edges(), 0u);
}

class GeneratorConnectivitySweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorConnectivitySweep, AllFamiliesYieldUsableGraphs) {
  const std::uint64_t seed = GetParam();
  EXPECT_TRUE(IsConnected(ConnectedGnm(256, 1024, seed)));
  EXPECT_TRUE(IsConnected(ConnectedGeometric(256, 8.0, seed)));
  EXPECT_TRUE(IsConnected(BarabasiAlbert(256, 2, seed)));
  EXPECT_TRUE(IsConnected(RouterLevelInternet(256, seed)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorConnectivitySweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace disco
