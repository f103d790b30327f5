#include "baselines/spf.h"

#include <algorithm>

namespace disco {

ShortestPathRouting::ShortestPathRouting(const Graph& g,
                                         std::size_t cache_capacity)
    : g_(&g), trees_(cache_capacity) {}

std::shared_ptr<const ShortestPathTree> ShortestPathRouting::TreeOf(
    NodeId dest) {
  return trees_.Get(dest, [this](NodeId t) {
    return std::make_shared<const ShortestPathTree>(Dijkstra(*g_, t));
  });
}

Route ShortestPathRouting::RoutePacket(NodeId s, NodeId t) {
  Route r;
  // Tree rooted at t: path t -> s reversed equals s -> t (undirected).
  r.path = TreeOf(t)->PathTo(s);
  std::reverse(r.path.begin(), r.path.end());
  if (r.path.empty()) return Route{};
  r.length = PathLength(*g_, r.path);
  return r;
}

StateBreakdown ShortestPathRouting::State(NodeId) const {
  StateBreakdown b;
  b.fib_entries = g_->num_nodes();
  return b;
}

}  // namespace disco
