#include "util/synopsis.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"

namespace disco {
namespace {

TEST(Synopsis, EmptyEstimatesSmall) {
  Synopsis s;
  EXPECT_LT(s.Estimate(), 2.0);
}

TEST(Synopsis, ByteSizeMatchesPaper) {
  // The paper cites ~10% accuracy with 256-byte synopses.
  EXPECT_EQ(Synopsis().byte_size(), 256u);
}

TEST(Synopsis, MergeIsIdempotent) {
  Synopsis a = Synopsis::ForElement(1);
  Synopsis b = a;
  b.Merge(a);
  EXPECT_EQ(a, b);
}

TEST(Synopsis, MergeIsCommutativeAndDuplicateInsensitive) {
  Synopsis ab, ba, ab_dup;
  const Synopsis ea = Synopsis::ForElement(1), eb = Synopsis::ForElement(2);
  ab.Merge(ea);
  ab.Merge(eb);
  ba.Merge(eb);
  ba.Merge(ea);
  ab_dup.Merge(ea);
  ab_dup.Merge(eb);
  ab_dup.Merge(ea);  // duplicate contribution must not change anything
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab, ab_dup);
}

class SynopsisAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(SynopsisAccuracy, EstimateWithinConstantFactor) {
  const int n = GetParam();
  Synopsis all;
  for (int i = 0; i < n; ++i) all.Merge(Synopsis::ForElement(i));
  const double est = all.Estimate();
  // Disco only needs a constant-factor estimate (§4.1); 32 bitmaps give
  // much better than 2x in practice.
  EXPECT_GT(est, n / 2.0) << "n=" << n;
  EXPECT_LT(est, n * 2.0) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SynopsisAccuracy,
                         ::testing::Values(64, 256, 1024, 4096, 16384));

TEST(SynopsisGossip, ConvergesToUniformEstimate) {
  const Graph g = ConnectedGnm(256, 1024, 7);
  // After enough rounds (≥ diameter) every node holds the same union
  // synopsis, hence identical estimates.
  const auto estimates = GossipEstimates(g, 32);
  for (std::size_t v = 1; v < estimates.size(); ++v) {
    ASSERT_DOUBLE_EQ(estimates[v], estimates[0]);
  }
  EXPECT_GT(estimates[0], g.num_nodes() / 2.0);
  EXPECT_LT(estimates[0], g.num_nodes() * 2.0);
}

TEST(SynopsisGossip, PartialGossipUndercounts) {
  // A ring has diameter n/2; after 3 rounds each node has seen only its
  // 3-hop neighborhood, so estimates must be far below n.
  const Graph g = Ring(512);
  const auto estimates = GossipEstimates(g, 3);
  for (const double e : estimates) EXPECT_LT(e, 64.0);
}

TEST(SynopsisGossip, EstimatesImproveWithRounds) {
  const Graph g = Ring(64);
  const auto early = GossipEstimates(g, 2);
  const auto late = GossipEstimates(g, 32);  // full cover
  EXPECT_LT(early[0], late[0]);
  EXPECT_GT(late[0], 32.0);
  EXPECT_LT(late[0], 128.0);
}

}  // namespace
}  // namespace disco
