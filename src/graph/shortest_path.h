// Shortest-path machinery: full Dijkstra (landmark trees), truncated
// k-nearest Dijkstra (vicinities, §4.2), and multi-source Dijkstra (the
// closest-landmark forest that yields every node's address in one pass).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace disco {

/// Result of a single-source Dijkstra: distances and parent pointers toward
/// the source. Unreachable nodes have dist == kInfDist, parent ==
/// kInvalidNode.
struct ShortestPathTree {
  NodeId source = kInvalidNode;
  std::vector<Dist> dist;
  std::vector<NodeId> parent;

  bool reachable(NodeId v) const { return dist[v] < kInfDist; }

  /// Path source -> v (inclusive of both endpoints). Empty if unreachable.
  std::vector<NodeId> PathTo(NodeId v) const;
};

ShortestPathTree Dijkstra(const Graph& g, NodeId source);

/// One settled node of a truncated Dijkstra, in settling order. The two
/// ids lead so the struct packs into 16 B without padding.
struct NearNode {
  NodeId node = kInvalidNode;
  NodeId parent = kInvalidNode;  // previous hop toward the source
  Dist dist = 0;
};
static_assert(sizeof(NearNode) == 16);

/// Settle position of a search's source, whose parent is no member.
inline constexpr std::uint32_t kNoPosition = UINT32_MAX;

/// The k nodes closest to `source` (including `source` itself at distance
/// 0), in nondecreasing distance order with ties broken by node id. Returns
/// fewer than k entries only if the component of `source` is smaller. Each
/// member's parent is its min-id predecessor on a shortest path, as in
/// Dijkstra(). If `parent_pos` is given, it receives each member's parent's
/// position in the result (kNoPosition for `source`).
///
/// Deterministic tie-breaking matters: two nodes computing "the k closest"
/// must agree on the boundary, and tests rely on it.
///
/// KNearest and WithinRadius share one truncated search that keeps its
/// working arrays in per-thread scratch: 16 B per node of the largest graph
/// the thread has searched (0.26 MB at n = 16,384), held for the thread's
/// lifetime and reset entry by entry, so a call costs O(members' arcs)
/// rather than O(n).
std::vector<NearNode> KNearest(const Graph& g, NodeId source, std::size_t k,
                               std::vector<std::uint32_t>* parent_pos =
                                   nullptr);

/// Every node within distance `radius` (inclusive) of `source`, in
/// nondecreasing distance order with ties broken by id — the "ball" used
/// for S4 cluster computations (C(v) membership is a radius test).
/// `parent_pos` as for KNearest.
std::vector<NearNode> WithinRadius(const Graph& g, NodeId source,
                                   Dist radius,
                                   std::vector<std::uint32_t>* parent_pos =
                                       nullptr);

/// Multi-source Dijkstra: for every node, the distance and parent toward its
/// closest source (ties broken by smaller source id). `closest[v]` names
/// that source. This is exactly the "closest landmark forest": the parent
/// chain from v is the explicit route of v's address, reversed.
struct MultiSourceTree {
  std::vector<Dist> dist;
  std::vector<NodeId> parent;
  std::vector<NodeId> closest;

  /// Path from the closest source of v down to v (inclusive).
  std::vector<NodeId> PathFromSource(NodeId v) const;
};

MultiSourceTree MultiSourceDijkstra(const Graph& g,
                                    const std::vector<NodeId>& sources);

/// Length of a node path under g's weights; kInfDist if any hop is missing.
Dist PathLength(const Graph& g, const std::vector<NodeId>& path);

}  // namespace disco
