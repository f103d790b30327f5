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
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "routing/node_memo.h"

namespace disco {

/// The converged vicinity of one node: its k closest nodes (including
/// itself at distance 0) with distances and truncated-tree parents.
class Vicinity {
 public:
  Vicinity(NodeId owner, std::vector<NearNode> members);

  NodeId owner() const { return owner_; }

  /// Members in nondecreasing distance order (ties by id); first is owner.
  const std::vector<NearNode>& members() const { return members_; }

  std::size_t size() const { return members_.size(); }

  bool Contains(NodeId v) const { return index_.count(v) > 0; }

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
  NodeId owner_;
  std::vector<NearNode> members_;
  std::unordered_map<NodeId, std::uint32_t> index_;  // node -> members_ idx
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
