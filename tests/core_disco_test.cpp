#include "core/disco.h"

#include <gtest/gtest.h>

#include <climits>

#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "test_util.h"
#include "util/rng.h"

namespace disco {
namespace {

Params WithSeed(std::uint64_t seed) {
  Params p;
  p.seed = seed;
  return p;
}

TEST(Disco, RoutesEveryPairOnSmallGraph) {
  const Graph g = ConnectedGnm(256, 1024, 1);
  Disco disco(g, WithSeed(1));
  for (NodeId s = 0; s < g.num_nodes(); s += 37) {
    for (NodeId t = 0; t < g.num_nodes(); t += 41) {
      const Route first = disco.RouteFirst(s, t);
      const Route later = disco.RouteLater(s, t);
      ASSERT_TRUE(first.ok()) << s << "->" << t;
      ASSERT_TRUE(later.ok());
      EXPECT_EQ(first.path.front(), s);
      EXPECT_EQ(first.path.back(), t);
      EXPECT_LE(later.length, first.length + 1e-9);
    }
  }
}

TEST(Disco, FirstPacketUsesGroupContactNotFallback) {
  const Graph g = ConnectedGnm(1024, 4096, 3);
  Disco disco(g, WithSeed(3));
  int routed = 0, fallbacks = 0, contacts = 0;
  for (NodeId s = 0; s < g.num_nodes(); s += 61) {
    for (NodeId t = 1; t < g.num_nodes(); t += 59) {
      if (s == t) continue;
      const Route r = disco.RouteFirst(s, t);
      ASSERT_TRUE(r.ok());
      ++routed;
      fallbacks += r.via_fallback ? 1 : 0;
      contacts += (r.contact != kInvalidNode) ? 1 : 0;
    }
  }
  // §4.4: the resolution fallback is a w.h.p.-never event.
  EXPECT_EQ(fallbacks, 0) << "of " << routed;
  EXPECT_GT(contacts, 0);
}

TEST(Disco, ContactBelongsToDestinationGroup) {
  const Graph g = ConnectedGnm(1024, 4096, 5);
  Disco disco(g, WithSeed(5));
  for (NodeId s = 0; s < g.num_nodes(); s += 97) {
    for (NodeId t = 7; t < g.num_nodes(); t += 89) {
      if (s == t) continue;
      const Route r = disco.RouteFirst(s, t);
      if (r.contact == kInvalidNode) continue;  // direct route
      EXPECT_TRUE(disco.groups().Stores(r.contact, t))
          << "contact " << r.contact << " for dest " << t;
    }
  }
}

class DiscoStretchBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiscoStretchBound, Theorem1Holds) {
  // Stretch ≤ 7 on first packets, ≤ 3 afterwards (w.h.p. — qualified the
  // same way as the NDDisco bound tests).
  const std::uint64_t seed = GetParam();
  const Graph g = ConnectedGeometric(768, 8.0, seed);
  Disco disco(g, WithSeed(seed));
  NdDisco& nd = disco.nd();

  auto vicinity_has_landmark = [&](NodeId v) {
    for (const Vicinity::Member& m : nd.vicinity(v)->members()) {
      if (nd.landmarks().Contains(m.node)) return true;
    }
    return false;
  };

  for (NodeId s = 2; s < g.num_nodes(); s += 73) {
    const auto truth = Dijkstra(g, s);
    for (NodeId t = 5; t < g.num_nodes(); t += 79) {
      if (s == t || truth.dist[t] <= 0) continue;
      if (!vicinity_has_landmark(s) || !vicinity_has_landmark(t)) continue;
      const Route first = disco.RouteFirst(s, t, Shortcut::kNone);
      ASSERT_TRUE(first.ok());
      if (first.via_fallback) continue;  // bound doesn't cover fallback
      EXPECT_LE(first.length / truth.dist[t], 7.0 + 1e-9)
          << s << "->" << t;
      const Route later = disco.RouteLater(s, t, Shortcut::kNone);
      EXPECT_LE(later.length / truth.dist[t], 3.0 + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoStretchBound,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Disco, ShortcutsOnlyImprove) {
  const Graph g = ConnectedGeometric(512, 8.0, 7);
  Disco disco(g, WithSeed(7));
  for (NodeId s = 0; s < g.num_nodes(); s += 131) {
    for (NodeId t = 1; t < g.num_nodes(); t += 127) {
      if (s == t) continue;
      const double none = disco.RouteFirst(s, t, Shortcut::kNone).length;
      const double npk =
          disco.RouteFirst(s, t, Shortcut::kNoPathKnowledge).length;
      EXPECT_LE(npk, none + 1e-9);
    }
  }
}

TEST(Disco, StateIncludesAllComponents) {
  const Graph g = ConnectedGnm(1024, 4096, 9);
  Disco disco(g, WithSeed(9));
  const std::size_t L = disco.nd().landmarks().count();
  const std::size_t k = disco.nd().vicinity_size();
  for (NodeId v = 0; v < g.num_nodes(); v += 111) {
    const StateBreakdown b = disco.State(v);
    EXPECT_EQ(b.landmark_entries, L);
    EXPECT_EQ(b.vicinity_entries, k);
    EXPECT_GT(b.group_entries, 0u);
    EXPECT_GT(b.overlay_entries, 0u);
    EXPECT_EQ(b.group_entries, disco.groups().StoredAddressCount(v));
  }
}

TEST(Disco, StateIsBalancedAcrossNodes) {
  // The headline property of Fig. 2: max/min state ratio stays small.
  const Graph g = BarabasiAlbert(1024, 2, 11);  // hub-heavy topology
  Disco disco(g, WithSeed(11));
  std::size_t min_total = SIZE_MAX, max_total = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t total = disco.State(v).total();
    min_total = std::min(min_total, total);
    max_total = std::max(max_total, total);
  }
  EXPECT_LT(static_cast<double>(max_total),
            3.0 * static_cast<double>(min_total));
}

TEST(Disco, RouteByNameWorks) {
  const Graph g = ConnectedGnm(128, 512, 13);
  Disco disco(g, WithSeed(13));
  const Route r = disco.RouteFirstByName("node-3", "node-99");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.path.front(), 3u);
  EXPECT_EQ(r.path.back(), 99u);
  EXPECT_FALSE(disco.RouteFirstByName("node-3", "unknown").ok());
}

TEST(Disco, CustomNamesAndMobility) {
  // Flat names are location-independent: the same names bound to a
  // different attachment graph still route (what mobility means here).
  const std::vector<std::string> names = {"alice", "bob", "carol", "dave",
                                          "erin", "frank", "grace", "heidi"};
  const Graph g1 = testing::PathGraph(8);
  const Graph g2 = Ring(8);
  Disco d1(g1, WithSeed(15), NameTable::FromNames(names));
  Disco d2(g2, WithSeed(15), NameTable::FromNames(names));
  EXPECT_TRUE(d1.RouteFirstByName("alice", "heidi").ok());
  EXPECT_TRUE(d2.RouteFirstByName("alice", "heidi").ok());
}

TEST(Disco, ErrorInjectedEstimatesStillRoute) {
  // §5.2: with 40% random error in n, all nodes could still reach all
  // destinations. Reproduce at small scale.
  const Graph g = ConnectedGnm(512, 2048, 17);
  const NodeId n = g.num_nodes();
  std::vector<double> estimates(n);
  Rng rng(99);
  for (NodeId v = 0; v < n; ++v) {
    estimates[v] = n * (1.0 + 0.8 * (rng.NextDouble() - 0.5));  // ±40%
  }
  Disco disco(g, WithSeed(17), NameTable::Default(n), estimates);
  int fallbacks = 0, total = 0;
  for (NodeId s = 0; s < n; s += 37) {
    for (NodeId t = 1; t < n; t += 41) {
      if (s == t) continue;
      const Route r = disco.RouteFirst(s, t);
      ASSERT_TRUE(r.ok());
      ++total;
      fallbacks += r.via_fallback ? 1 : 0;
    }
  }
  // Nearly every pair should resolve through the sloppy groups.
  EXPECT_LT(fallbacks, total / 20);
}

}  // namespace
}  // namespace disco
