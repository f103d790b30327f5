// Virtual Ring Routing (Caesar et al., SIGCOMM'06 [9]) — the paper's
// DHT-inspired comparison point for routing on flat names.
//
// Nodes are arranged in a virtual ring by hashed name. Each node maintains
// a virtual neighbor set (vset) of r = 4 nodes (its 2 closest ring
// successors and 2 predecessors) and keeps a *physical* path to each vset
// member; every node along such a path stores a routing entry for it.
// Packets are forwarded greedily: each node picks, among the path endpoints
// it has entries for (and its physical neighbors), the one whose id is
// ring-closest to the destination, and forwards along the stored path.
//
// Construction follows the protocol: nodes join one at a time, growing a
// connected component from a random seed (§5.1 of the Disco paper: "VRR's
// converged state depends on the order of node joins"). A joining node sets
// up paths to its new vset members by routing the setup message over the
// *current* virtual network — and VRR never re-optimizes an established
// path. That is why its state and stretch have no bounds: setup walks
// meander (entries pile up on central nodes, up to Θ(n^2) in theory) and a
// single virtual hop can cross the whole network. Pairs displaced by later
// joins are torn down, but the surviving paths keep their join-time shape.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/names.h"
#include "core/route.h"
#include "core/state.h"
#include "graph/graph.h"
#include "routing/params.h"

namespace disco {

class Vrr {
 public:
  /// `vset_half`: ring neighbors kept on each side (2 ⇒ r = 4, the paper's
  /// setting).
  Vrr(const Graph& g, const Params& params, int vset_half = 2);

  const Graph& graph() const { return *g_; }
  const NameTable& names() const { return names_; }

  /// One stored path entry at a node.
  struct PathEntry {
    NodeId endpoint_a = kInvalidNode;
    NodeId endpoint_b = kInvalidNode;
    NodeId next_toward_a = kInvalidNode;  // kInvalidNode at endpoint a
    NodeId next_toward_b = kInvalidNode;
  };

  /// The vset-path entries currently stored at v, in pair-key order.
  std::vector<PathEntry> EntriesAt(NodeId v) const;

  /// Greedy virtual-ring forwarding from s to t. VRR has no first/later
  /// distinction — every packet routes the same way.
  Route RoutePacket(NodeId s, NodeId t) const;

  StateBreakdown State(NodeId v) const;

  /// Construction diagnostics.
  struct BuildStats {
    std::size_t pairs_set_up = 0;
    std::size_t pairs_torn_down = 0;
    std::size_t setup_fallbacks = 0;  // setups that needed a rescue path
    double mean_setup_hops = 0;       // stored path length per live pair
    // failure-mode diagnostics for setup walks
    std::size_t fail_no_candidate = 0;
    std::size_t fail_stuck = 0;
    std::size_t fail_dead_entry = 0;
    std::size_t fail_hop_limit = 0;
  };
  const BuildStats& build_stats() const { return build_stats_; }

 private:
  using PairKey = std::uint64_t;
  static PairKey KeyOf(NodeId a, NodeId b);

  /// A stored path through a node, seen from one of its two ends.
  struct Rec {
    PairKey key;
    NodeId end;
    NodeId next_toward_end;  // kInvalidNode at `end` itself
  };

  /// First record of `recs` not ordered before (h, end, key).
  std::vector<Rec>::const_iterator LowerBound(const std::vector<Rec>& recs,
                                              HashValue h, NodeId end,
                                              PairKey key) const;
  /// Adds, or removes, the two records of one path at v in one pass.
  void InsertRecs(NodeId v, Rec r, Rec s);
  void EraseRecs(NodeId v, PairKey key, NodeId a, NodeId b);

  void Join(NodeId x);
  void SetupPair(NodeId x, NodeId y);
  void TeardownPair(NodeId a, NodeId b);
  void StorePath(PairKey key, const std::vector<NodeId>& path);

  /// Greedy walk from `start` toward the node with hash `target`; empty on
  /// failure. Candidates: stored entries plus joined physical neighbors.
  std::vector<NodeId> GreedyWalk(NodeId start, NodeId target) const;

  const Graph* g_;
  NameTable names_;
  int vset_half_;

  std::vector<char> joined_;
  std::vector<std::pair<HashValue, NodeId>> ring_;  // joined, sorted by hash
  // recs_[v]: one record per (stored path through v, path end), sorted by
  // (hash(end), end, key). Greedy forwarding reads the ring-closest
  // endpoint off the neighborhood of h(target), and the records ending at
  // one node form a contiguous run in key order. When several paths lead
  // toward the committed endpoint, the walk takes the one with the
  // smallest pair key: the first live record of that run. State(v) is
  // half the record count.
  std::vector<std::vector<Rec>> recs_;
  std::unordered_map<PairKey, std::vector<NodeId>> pair_paths_;
  BuildStats build_stats_;
  // Non-null only while the constructor's setup walks run, so the failure
  // counters track construction rather than data-plane routing.
  BuildStats* stats_ = nullptr;
};

}  // namespace disco
