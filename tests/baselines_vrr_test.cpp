#include "baselines/vrr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>

#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "test_util.h"
#include "util/hashring.h"
#include "util/sha256.h"

namespace disco {
namespace {

Params WithSeed(std::uint64_t seed) {
  Params p;
  p.seed = seed;
  return p;
}

TEST(Vrr, EveryNodeHasVsetEntries) {
  const Graph g = ConnectedGnm(256, 1024, 1);
  const Vrr vrr(g, WithSeed(1));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(vrr.EntriesAt(v).size(), 2u) << "node " << v;
  }
}

TEST(Vrr, PathEntriesAreLocallyConsistent) {
  const Graph g = ConnectedGnm(256, 1024, 3);
  const Vrr vrr(g, WithSeed(3));
  for (NodeId v = 0; v < g.num_nodes(); v += 17) {
    for (const Vrr::PathEntry& e : vrr.EntriesAt(v)) {
      // Endpoint side has no next hop toward itself; transit nodes have
      // both next hops, and each next hop is a physical neighbor.
      if (v == e.endpoint_a) {
        EXPECT_EQ(e.next_toward_a, kInvalidNode);
        EXPECT_NE(e.next_toward_b, kInvalidNode);
      }
      if (e.next_toward_a != kInvalidNode) {
        EXPECT_GE(g.InterfaceTo(v, e.next_toward_a), 0);
      }
      if (e.next_toward_b != kInvalidNode) {
        EXPECT_GE(g.InterfaceTo(v, e.next_toward_b), 0);
      }
    }
  }
}

TEST(Vrr, EntryTablesAreConsistentAndReproducible) {
  const Graph g = ConnectedGnm(256, 1024, 5);
  const Vrr vrr(g, WithSeed(5));
  const Vrr again(g, WithSeed(5));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::vector<Vrr::PathEntry> entries = vrr.EntriesAt(v);
    EXPECT_EQ(vrr.State(v).vset_entries, entries.size()) << "node " << v;
    // One entry per stored path: no pair key twice at a node.
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (const Vrr::PathEntry& e : entries) {
      pairs.emplace_back(std::min(e.endpoint_a, e.endpoint_b),
                         std::max(e.endpoint_a, e.endpoint_b));
    }
    std::sort(pairs.begin(), pairs.end());
    EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end())
        << "node " << v;
    const std::vector<Vrr::PathEntry> other = again.EntriesAt(v);
    ASSERT_EQ(entries.size(), other.size()) << "node " << v;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].endpoint_a, other[i].endpoint_a);
      EXPECT_EQ(entries[i].endpoint_b, other[i].endpoint_b);
      EXPECT_EQ(entries[i].next_toward_a, other[i].next_toward_a);
      EXPECT_EQ(entries[i].next_toward_b, other[i].next_toward_b);
    }
  }
}

class VrrReachability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VrrReachability, AllSampledPairsDeliver) {
  const std::uint64_t seed = GetParam();
  const Graph g = ConnectedGnm(512, 2048, seed);
  const Vrr vrr(g, WithSeed(seed));
  for (NodeId s = 0; s < g.num_nodes(); s += 43) {
    for (NodeId t = 1; t < g.num_nodes(); t += 47) {
      if (s == t) continue;
      const Route r = vrr.RoutePacket(s, t);
      ASSERT_TRUE(r.ok()) << s << " -> " << t;
      EXPECT_EQ(r.path.front(), s);
      EXPECT_EQ(r.path.back(), t);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VrrReachability,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Vrr, StretchAtLeastOneAndOftenHigh) {
  const Graph g = ConnectedGeometric(512, 8.0, 7);
  const Vrr vrr(g, WithSeed(7));
  double worst = 0, sum = 0;
  int count = 0;
  for (NodeId s = 0; s < g.num_nodes(); s += 31) {
    const auto truth = Dijkstra(g, s);
    for (NodeId t = 1; t < g.num_nodes(); t += 37) {
      if (s == t || truth.dist[t] <= 0) continue;
      const Route r = vrr.RoutePacket(s, t);
      ASSERT_TRUE(r.ok());
      const double stretch = r.length / truth.dist[t];
      EXPECT_GE(stretch, 1.0 - 1e-9);
      worst = std::max(worst, stretch);
      sum += stretch;
      ++count;
    }
  }
  // VRR has no stretch bound; on latency-annotated geometric graphs its
  // virtual-ring hops wander (Fig. 5 middle).
  EXPECT_GT(worst, 3.0);
  EXPECT_GT(sum / count, 1.2);
}

TEST(Vrr, StateIsHighlySkewed) {
  // End-to-end vset paths pile onto central nodes (Fig. 4/5 left).
  const Graph g = ConnectedGnm(512, 2048, 9);
  const Vrr vrr(g, WithSeed(9));
  std::size_t max_state = 0, total = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t s = vrr.State(v).vset_entries;
    max_state = std::max(max_state, s);
    total += s;
  }
  const double mean = static_cast<double>(total) /
                      static_cast<double>(g.num_nodes());
  EXPECT_GT(static_cast<double>(max_state), 3.0 * mean);
}

TEST(Vrr, SelfRouteTrivial) {
  const Graph g = ConnectedGnm(128, 512, 11);
  const Vrr vrr(g, WithSeed(11));
  const Route r = vrr.RoutePacket(5, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.path, std::vector<NodeId>{5});
}

// VRR's forwarding rule, spelled out as a linear scan over the public
// entries: go toward the endpoint (stored path end or physical neighbor)
// ring-closest to t, ties to the smaller id; keep it until a strictly
// better one appears; follow the path taken until it ends, and pick a new
// one, the smallest pair key among those leading toward the endpoint,
// only when none is being followed. Counts in `ties` the picks that had
// more than one path to choose from.
std::vector<NodeId> ReferenceWalk(
    const Graph& g, const Vrr& vrr,
    const std::vector<std::vector<Vrr::PathEntry>>& entries, NodeId s,
    NodeId t, std::size_t& ties) {
  const HashValue ht = vrr.names().hash(t);
  auto key_of = [](const Vrr::PathEntry& e) {
    return std::pair(std::min(e.endpoint_a, e.endpoint_b),
                     std::max(e.endpoint_a, e.endpoint_b));
  };
  // Next hop of `e` toward `end`, or kInvalidNode if `end` is not one of
  // its endpoints.
  auto toward = [](const Vrr::PathEntry& e, NodeId end) {
    return e.endpoint_a == end   ? e.next_toward_a
           : e.endpoint_b == end ? e.next_toward_b
                                 : kInvalidNode;
  };
  std::vector<NodeId> walk{s};
  NodeId cur = s;
  NodeId committed = kInvalidNode;
  const std::pair none(kInvalidNode, kInvalidNode);
  std::pair<NodeId, NodeId> following = none;  // key of the path followed
  while (cur != t && walk.size() < 16u * g.num_nodes() + 64) {
    NodeId best = committed;
    auto consider = [&](NodeId cand) {
      const auto rank = [&](NodeId v) {
        return std::pair(RingDistance(vrr.names().hash(v), ht), v);
      };
      if (best == kInvalidNode || rank(cand) < rank(best)) best = cand;
    };
    for (const Vrr::PathEntry& e : entries[cur]) {
      consider(e.endpoint_a);
      consider(e.endpoint_b);
    }
    for (const Neighbor& nb : g.neighbors(cur)) consider(nb.to);
    if (best == kInvalidNode || best == cur) return {};
    if (best != committed) {
      committed = best;
      following = none;
    }
    NodeId next = kInvalidNode;
    for (const Vrr::PathEntry& e : entries[cur]) {
      if (key_of(e) == following) next = toward(e, committed);
    }
    if (next == kInvalidNode) {
      std::size_t live = 0;
      for (const Vrr::PathEntry& e : entries[cur]) {
        if (toward(e, committed) == kInvalidNode) continue;
        ++live;
        if (next == kInvalidNode || key_of(e) < following) {
          next = toward(e, committed);
          following = key_of(e);
        }
      }
      if (live > 1) ++ties;
    }
    if (next == kInvalidNode) {
      if (g.InterfaceTo(cur, committed) < 0) return {};
      next = committed;
      following = none;
    }
    walk.push_back(next);
    cur = next;
  }
  return cur == t ? walk : std::vector<NodeId>{};
}

TEST(Vrr, WalkMatchesReferenceRule) {
  const Graph graphs[] = {ConnectedGnm(256, 1024, 1),
                          ConnectedGeometric(256, 8.0, 1)};
  for (const Graph& g : graphs) {
    const Vrr vrr(g, WithSeed(1));
    const NodeId n = g.num_nodes();
    std::vector<std::vector<Vrr::PathEntry>> entries(n);
    for (NodeId v = 0; v < n; ++v) entries[v] = vrr.EntriesAt(v);
    std::size_t ties = 0;
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        ASSERT_EQ(vrr.RoutePacket(s, t).path,
                  ReferenceWalk(g, vrr, entries, s, t, ties))
            << s << " -> " << t;
      }
    }
    // The rule is only exercised where paths tie.
    EXPECT_GT(ties, 0u);
  }
}

// SHA-256 over everything a converged Vrr exposes: per-node state, the
// per-node entries (sorted, so only their content counts), the build
// diagnostics and 256 routed paths.
std::string ConvergedDigest(const Graph& g, const Vrr& vrr) {
  Sha256 h;
  auto put = [&h](std::uint64_t x) { h.Update(&x, sizeof x); };
  const NodeId n = g.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    put(vrr.State(v).vset_entries);
    put(vrr.State(v).total());
    std::vector<std::tuple<NodeId, NodeId, NodeId, NodeId>> entries;
    for (const Vrr::PathEntry& e : vrr.EntriesAt(v)) {
      entries.emplace_back(e.endpoint_a, e.endpoint_b, e.next_toward_a,
                           e.next_toward_b);
    }
    std::sort(entries.begin(), entries.end());
    put(entries.size());
    for (const auto& [a, b, na, nb] : entries) {
      put(a);
      put(b);
      put(na);
      put(nb);
    }
  }
  const Vrr::BuildStats& st = vrr.build_stats();
  std::uint64_t hops_bits = 0;
  std::memcpy(&hops_bits, &st.mean_setup_hops, sizeof hops_bits);
  for (const std::uint64_t x :
       {std::uint64_t{st.pairs_set_up}, std::uint64_t{st.pairs_torn_down},
        std::uint64_t{st.setup_fallbacks}, hops_bits,
        std::uint64_t{st.fail_no_candidate}, std::uint64_t{st.fail_stuck},
        std::uint64_t{st.fail_dead_entry}, std::uint64_t{st.fail_hop_limit}}) {
    put(x);
  }
  for (NodeId i = 0; i < 256; ++i) {
    const Route r = vrr.RoutePacket((i * 131) % n, (i * 257 + 97) % n);
    put(r.ok());
    put(r.path.size());
    for (const NodeId v : r.path) put(v);
  }
  return Sha256HexOf(h.Finalize()).substr(0, 16);
}

// The byte-identity contract for VRR: any change to the entry tables or
// the greedy walk must leave these digests alone, unless it deliberately
// changes VRR's output and refreshes them.
TEST(Vrr, ConvergedOutputIsPinned) {
  struct Case {
    const char* name;
    Graph graph;
    std::uint64_t seed;
    int vset_half;
    const char* digest;
  };
  const Case cases[] = {
      {"gnm512 seed 1", ConnectedGnm(512, 2048, 1), 1, 2, "d87698f7a9fd4ae2"},
      {"gnm512 seed 2", ConnectedGnm(512, 2048, 2), 2, 2, "eb33c35894595440"},
      {"gnm512 seed 3", ConnectedGnm(512, 2048, 3), 3, 2, "656f697287fa9208"},
      {"geo512 seed 7", ConnectedGeometric(512, 8.0, 7), 7, 2, "238346e9bb7b1c5b"},
      {"gnm512 vset_half 1", ConnectedGnm(512, 2048, 1), 1, 1, "d4054f5fae7c3f35"},
      {"gnm512 vset_half 3", ConnectedGnm(512, 2048, 1), 1, 3, "d4cd0dd87a63c704"},
  };
  for (const Case& c : cases) {
    const Vrr vrr(c.graph, WithSeed(c.seed), c.vset_half);
    EXPECT_EQ(ConvergedDigest(c.graph, vrr), c.digest) << c.name;
  }
}

TEST(Vrr, WorksOnRingTopology) {
  const Graph g = Ring(64);
  const Vrr vrr(g, WithSeed(13));
  for (NodeId t = 1; t < 64; t += 7) {
    EXPECT_TRUE(vrr.RoutePacket(0, t).ok()) << t;
  }
}

}  // namespace
}  // namespace disco
