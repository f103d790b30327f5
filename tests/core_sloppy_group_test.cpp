#include "core/sloppy_group.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "routing/params.h"
#include "util/hashring.h"

namespace disco {
namespace {

TEST(SloppyGroups, ExactNGivesUniformBits) {
  const NameTable names = NameTable::Default(1024);
  const SloppyGroups groups(names, 1024);
  for (NodeId v = 0; v < 1024; ++v) {
    EXPECT_EQ(groups.bits_of(v), SloppyGroupBits(1024.0));
  }
}

TEST(SloppyGroups, GroupOfMatchesHashPrefix) {
  const NameTable names = NameTable::Default(1024);
  const SloppyGroups groups(names, 1024);
  for (NodeId v = 0; v < 1024; v += 37) {
    EXPECT_EQ(groups.group_of(v),
              GroupId(names.hash(v), groups.bits_of(v)));
  }
}

TEST(SloppyGroups, StoresIsSymmetricWithUniformBits) {
  const NameTable names = NameTable::Default(512);
  const SloppyGroups groups(names, 512);
  for (NodeId a = 0; a < 64; ++a) {
    for (NodeId b = 0; b < 64; ++b) {
      EXPECT_EQ(groups.Stores(a, b), groups.Stores(b, a));
    }
  }
}

TEST(SloppyGroups, MembersPartitionTheNetwork) {
  const NameTable names = NameTable::Default(2048);
  const SloppyGroups groups(names, 2048);
  std::set<NodeId> covered;
  std::set<std::uint64_t> gids;
  for (NodeId v = 0; v < 2048; ++v) gids.insert(groups.group_of(v));
  std::size_t total = 0;
  for (NodeId v = 0; v < 2048; ++v) {
    if (covered.count(v)) continue;
    const auto members = groups.GroupMembers(v);
    total += members.size();
    for (const NodeId m : members) {
      EXPECT_TRUE(covered.insert(m).second) << "node in two groups";
      EXPECT_EQ(groups.group_of(m), groups.group_of(v));
    }
  }
  EXPECT_EQ(total, 2048u);
  EXPECT_EQ(gids.size(), 1u << SloppyGroupBits(2048.0));
}

TEST(SloppyGroups, StoredAddressCountEqualsGroupSize) {
  const NameTable names = NameTable::Default(1024);
  const SloppyGroups groups(names, 1024);
  for (NodeId v = 0; v < 1024; v += 101) {
    EXPECT_EQ(groups.StoredAddressCount(v),
              groups.GroupMembers(v).size());
    EXPECT_EQ(groups.StoredAddresses(v).size(),
              groups.StoredAddressCount(v));
  }
}

TEST(SloppyGroups, GroupSizesNearExpectation) {
  const NodeId n = 16384;
  const NameTable names = NameTable::Default(n);
  const SloppyGroups groups(names, n);
  const int bits = SloppyGroupBits(n);
  const double expected = static_cast<double>(n) / (1 << bits);
  for (NodeId v = 0; v < n; v += 997) {
    const double size = static_cast<double>(groups.StoredAddressCount(v));
    EXPECT_GT(size, expected * 0.7);
    EXPECT_LT(size, expected * 1.3);
  }
}

TEST(SloppyGroups, SmallNMeansOneGroup) {
  const NameTable names = NameTable::Default(16);
  const SloppyGroups groups(names, 16);
  for (NodeId v = 0; v < 16; ++v) {
    EXPECT_EQ(groups.bits_of(v), 0);
    EXPECT_EQ(groups.StoredAddressCount(v), 16u);
  }
}

TEST(SloppyGroups, EstimateErrorWithinTwoKeepsOverlap) {
  // Estimates within a factor of 2 differ by at most one bit, so two nodes
  // in the same "true" group still mutually store each other when their
  // prefixes agree on the larger k — the §4.4 sloppiness argument.
  const NodeId n = 4096;
  const NameTable names = NameTable::Default(n);
  std::vector<double> estimates(n);
  for (NodeId v = 0; v < n; ++v) {
    estimates[v] = (v % 2 == 0) ? n * 0.75 : n * 1.4;  // within 2x overall
  }
  const SloppyGroups groups(names, estimates);
  for (NodeId v = 0; v < 32; ++v) {
    for (NodeId w = 0; w < 32; ++w) {
      EXPECT_LE(std::abs(groups.bits_of(v) - groups.bits_of(w)), 1);
    }
  }
}

TEST(SloppyGroups, FindContactPrefersLongestPrefix) {
  const NodeId n = 1024;
  const Graph g = ConnectedGnm(n, 4 * n, 3);
  const NameTable names = NameTable::Default(g.num_nodes());
  const SloppyGroups groups(names, g.num_nodes());
  const Vicinity vic = Vicinity::Nearest(g, 0, 85);
  for (NodeId t = 500; t < 520; ++t) {
    const auto w = groups.FindContact(vic, t);
    ASSERT_TRUE(w.has_value());
    const int got = CommonPrefixLength(names.hash(*w), names.hash(t));
    for (const Vicinity::Member& m : vic.members()) {
      EXPECT_LE(CommonPrefixLength(names.hash(m.node), names.hash(t)), got);
    }
  }
}

class GroupVicinityIntersection
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupVicinityIntersection, EveryVicinityMeetsEveryGroup) {
  // The w.h.p. core of Theorem 1: |V(s)| = Θ(sqrt(n log n)) and groups of
  // Θ(sqrt(n) log n) nodes must intersect, or first-packet routing falls
  // back. Verify exhaustively at n=1024 over sampled sources.
  const std::uint64_t seed = GetParam();
  const NodeId n = 1024;
  const Graph g = ConnectedGnm(n, 4 * n, seed);
  const NameTable names = NameTable::Default(g.num_nodes());
  const SloppyGroups groups(names, g.num_nodes());
  const std::size_t k = VicinitySize(g.num_nodes());

  std::set<std::uint64_t> all_groups;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    all_groups.insert(groups.group_of(v));
  }
  for (NodeId s = 0; s < g.num_nodes(); s += 83) {
    const Vicinity vic = Vicinity::Nearest(g, s, k);
    std::set<std::uint64_t> seen;
    for (const Vicinity::Member& m : vic.members()) {
      seen.insert(groups.group_of(m.node));
    }
    EXPECT_EQ(seen, all_groups) << "source " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupVicinityIntersection,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace disco
