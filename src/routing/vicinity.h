// Vicinities (§4.2): V(v) is the k = Θ(sqrt(n log n)) nodes closest to v,
// learned by the bounded path-vector protocol. The fixed size — rather than
// S4's unbounded clusters — is what enforces Disco's per-node state bound.
//
// The static simulator computes a vicinity with one truncated Dijkstra and
// memoizes it: the evaluation touches vicinities of sampled sources and of
// nodes along routes (shortcutting), with heavy reuse, so VicinityCache —
// the node memo (routing/node_memo.h) over truncated Dijkstras — backs
// every protocol object. Parallel route sampling computes the vicinities of
// distinct sources concurrently; Prewarm() bulk-computes a known working
// set up front.
//
// Layout: three flat arrays, with no growth slack and no heap node per
// member. The members in distance order take 16 B each; a node-sorted
// (node, position) index, which Contains and DistanceTo binary-search,
// 8 B; and each member's parent position, which PathTo follows, 4 B. The
// parent positions come from the search itself (KNearest/WithinRadius
// record each node's settle position), so building a vicinity sorts the
// index and looks nothing up.
// That is 28 B per member (11.2 KB at k = 399, n = 16,384), against about
// 64 B with a padded member and a hash-map index.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "routing/node_memo.h"

namespace disco {

/// The converged vicinity of one node: its k closest nodes (including
/// itself at distance 0) with distances and truncated-tree parents.
class Vicinity {
 public:
  /// The k nodes closest to `owner` (KNearest).
  static Vicinity Nearest(const Graph& g, NodeId owner, std::size_t k);

  /// Every node within `radius` of `owner` (WithinRadius): an S4 ball.
  static Vicinity Ball(const Graph& g, NodeId owner, Dist radius);

  NodeId owner() const { return owner_; }

  /// Members in nondecreasing distance order (ties by id); first is owner.
  const std::vector<NearNode>& members() const { return members_; }

  std::size_t size() const { return members_.size(); }

  bool Contains(NodeId v) const { return Find(v) != kNone; }

  /// Distance to a member; kInfDist if v is not in the vicinity.
  Dist DistanceTo(NodeId v) const;

  /// Distance to the farthest member (the vicinity "radius" that the
  /// control-plane optimization of §4.2 would advertise to neighbors).
  Dist radius() const {
    return members_.empty() ? 0 : members_.back().dist;
  }

  /// Shortest path owner -> member (inclusive); empty if not a member.
  std::vector<NodeId> PathTo(NodeId v) const;

 private:
  struct IndexEntry {
    NodeId node;
    std::uint32_t pos;  // into members_
  };
  static constexpr std::uint32_t kNone = kNoPosition;

  /// `members` and `parent_pos` come from one truncated search rooted at
  /// `owner`, so every member but the owner has its parent at an earlier
  /// position (asserted).
  Vicinity(NodeId owner, std::vector<NearNode> members,
           std::vector<std::uint32_t> parent_pos);

  /// Position of v in members_, or kNone.
  std::uint32_t Find(NodeId v) const;

  NodeId owner_;
  std::vector<NearNode> members_;
  std::vector<IndexEntry> index_;          // sorted by node
  std::vector<std::uint32_t> parent_pos_;  // kNone for the owner
};

/// Vicinities of a fixed graph, memoized per node in a NodeMemo.
class VicinityCache {
 public:
  /// `k` is the vicinity size; `capacity` the number of vicinities kept.
  VicinityCache(const Graph& g, std::size_t k, std::size_t capacity = 4096);

  /// Safe to call concurrently; misses on distinct nodes run their
  /// truncated Dijkstras in parallel.
  std::shared_ptr<const Vicinity> Get(NodeId v);

  /// Computes the vicinities of `nodes` in parallel over the runtime pool
  /// (skipping ones already cached). A wall-clock optimization only:
  /// vicinity contents are a deterministic function of the graph.
  void Prewarm(const std::vector<NodeId>& nodes);

  std::size_t k() const { return k_; }
  std::size_t computed_count() const { return memo_.computed_count(); }

 private:
  std::shared_ptr<const Vicinity> Compute(NodeId v) const;

  const Graph& g_;
  std::size_t k_;
  NodeMemo<Vicinity> memo_;
};

}  // namespace disco
