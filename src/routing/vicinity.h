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
// Layout: two flat arrays, with no growth slack and no heap node per
// member. The members in distance order take 16 B each: node, distance and
// the position of the member's parent, which PathTo follows; a node-sorted
// (node, position) index, which Contains and DistanceTo binary-search,
// 8 B. The parent positions come from the search itself (KNearest/
// WithinRadius record each node's settle position), so building a vicinity
// sorts the index and looks nothing up.
// That is 24 B per member (9.6 KB at k = 399, n = 16,384), against about
// 64 B with a padded member and a hash-map index.
//
// Residency: in the converged protocol every node holds its vicinity, n·k
// members in all. VicinityCache keeps that many resident when they fit
// kMemberBudget (one constant, about 200 MB of members), so a run computes
// each vicinity at most once; past the budget it keeps budget / k of them,
// least recently used evicted first.
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

  /// One member: a node, its distance from the owner and its parent's
  /// position in members() (kNoPosition for the owner).
  struct Member {
    NodeId node;
    std::uint32_t parent_pos;
    Dist dist;
  };

  /// Members in nondecreasing distance order (ties by id); first is owner.
  const std::vector<Member>& members() const { return members_; }

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

  /// `near` and `parent_pos` come from one truncated search rooted at
  /// `owner`, so every member but the owner has its parent at an earlier
  /// position (asserted).
  Vicinity(NodeId owner, const std::vector<NearNode>& near,
           const std::vector<std::uint32_t>& parent_pos);

  /// Position of v in members_, or kNone.
  std::uint32_t Find(NodeId v) const;

  NodeId owner_;
  std::vector<Member> members_;
  std::vector<IndexEntry> index_;  // sorted by node
};
static_assert(sizeof(Vicinity::Member) == 16);

/// Vicinities of a fixed graph, memoized per node in a NodeMemo.
class VicinityCache {
 public:
  /// Members kept resident by the default capacity: 8.4 M, about 200 MB.
  static constexpr std::size_t kMemberBudget = std::size_t{1} << 23;

  /// Vicinities computed by one Prewarm() call, at most.
  static constexpr std::size_t kPrewarmLimit = 4096;

  /// `k` is the vicinity size; keeps kMemberBudget / k vicinities.
  VicinityCache(const Graph& g, std::size_t k);

  /// Keeps `capacity` vicinities.
  VicinityCache(const Graph& g, std::size_t k, std::size_t capacity);

  /// Safe to call concurrently; misses on distinct nodes run their
  /// truncated Dijkstras in parallel.
  std::shared_ptr<const Vicinity> Get(NodeId v);

  /// Computes the vicinities of `nodes` in parallel over the runtime pool
  /// (skipping ones already cached), at most kPrewarmLimit of them, so
  /// set-up work stays bounded whatever stays resident. A wall-clock
  /// optimization only: vicinity contents are a deterministic function of
  /// the graph.
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
