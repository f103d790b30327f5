// Shortest-path routing (the "path vector" row of the evaluation): the
// Ω(n)-state baseline every compact scheme is measured against. Stretch is
// 1 by definition; state is one FIB entry per destination; congestion is
// the shortest-path reference curve of Fig. 4/5/10. Routes are read off
// per-destination Dijkstra trees, memoized in a node memo
// (routing/node_memo.h).
#pragma once

#include <memory>

#include "core/route.h"
#include "core/state.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "routing/node_memo.h"

namespace disco {

class ShortestPathRouting {
 public:
  explicit ShortestPathRouting(const Graph& g,
                               std::size_t cache_capacity = 256);

  /// The shortest path s -> t (ties broken deterministically). Safe to
  /// call concurrently.
  Route RoutePacket(NodeId s, NodeId t);

  /// n FIB entries per node, the path-vector data plane.
  StateBreakdown State(NodeId v) const;

 private:
  std::shared_ptr<const ShortestPathTree> TreeOf(NodeId dest);

  const Graph* g_;
  NodeMemo<ShortestPathTree> trees_;  // keyed by destination
};

}  // namespace disco
