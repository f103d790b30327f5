#include "graph/shortest_path.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace disco {
namespace {

struct QueueItem {
  Dist dist;
  NodeId node;
  // Min-heap by (dist, node id); the id tie-break makes settling order (and
  // therefore truncated vicinities) deterministic across runs.
  bool operator>(const QueueItem& o) const {
    return dist > o.dist || (dist == o.dist && node > o.node);
  }
};

using MinQueue =
    std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>;

}  // namespace

std::vector<NodeId> ShortestPathTree::PathTo(NodeId v) const {
  if (!reachable(v)) return {};
  std::vector<NodeId> path;
  for (NodeId cur = v; cur != kInvalidNode; cur = parent[cur]) {
    path.push_back(cur);
    if (cur == source) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ShortestPathTree Dijkstra(const Graph& g, NodeId source) {
  const NodeId n = g.num_nodes();
  ShortestPathTree t;
  t.source = source;
  t.dist.assign(n, kInfDist);
  t.parent.assign(n, kInvalidNode);
  t.dist[source] = 0;

  MinQueue q;
  q.push({0, source});
  while (!q.empty()) {
    const auto [d, v] = q.top();
    q.pop();
    if (d > t.dist[v]) continue;  // stale entry
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      if (nd < t.dist[nb.to] ||
          (nd == t.dist[nb.to] && v < t.parent[nb.to])) {
        t.dist[nb.to] = nd;
        t.parent[nb.to] = v;
        q.push({nd, nb.to});
      }
    }
  }
  return t;
}

std::vector<NearNode> KNearest(const Graph& g, NodeId source, std::size_t k) {
  std::vector<NearNode> out;
  if (k == 0) return out;
  out.reserve(k);

  // Dense per-call arrays, although the search touches only O(k) of the n
  // nodes: filling them is one streaming pass, and a reused version-stamped
  // scratch buffer was slower with identical output (175-197 us against
  // 144-151 us per call at n=16383, k=399).
  std::vector<Dist> dist(g.num_nodes(), kInfDist);
  std::vector<NodeId> parent(g.num_nodes(), kInvalidNode);

  MinQueue q;
  dist[source] = 0;
  q.push({0, source});

  std::vector<char> settled(g.num_nodes(), 0);
  while (!q.empty() && out.size() < k) {
    const auto [d, v] = q.top();
    q.pop();
    if (settled[v] || d > dist[v]) continue;
    settled[v] = 1;
    out.push_back({v, parent[v], d});
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      if (nd < dist[nb.to] || (nd == dist[nb.to] && v < parent[nb.to])) {
        dist[nb.to] = nd;
        parent[nb.to] = v;
        q.push({nd, nb.to});
      }
    }
  }
  return out;
}

std::vector<NearNode> WithinRadius(const Graph& g, NodeId source,
                                   Dist radius) {
  std::vector<NearNode> out;
  std::vector<Dist> dist(g.num_nodes(), kInfDist);
  std::vector<NodeId> parent(g.num_nodes(), kInvalidNode);
  std::vector<char> settled(g.num_nodes(), 0);

  MinQueue q;
  dist[source] = 0;
  q.push({0, source});
  while (!q.empty()) {
    const auto [d, v] = q.top();
    q.pop();
    if (settled[v] || d > dist[v]) continue;
    settled[v] = 1;
    out.push_back({v, parent[v], d});
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      if (nd > radius) continue;
      if (nd < dist[nb.to] || (nd == dist[nb.to] && v < parent[nb.to])) {
        dist[nb.to] = nd;
        parent[nb.to] = v;
        q.push({nd, nb.to});
      }
    }
  }
  return out;
}

RadiusSearcher::RadiusSearcher(const Graph& g)
    : g_(g), stamp_(g.num_nodes(), 0), dist_(g.num_nodes(), kInfDist),
      parent_(g.num_nodes(), kInvalidNode), settled_(g.num_nodes(), 0) {}

void RadiusSearcher::Search(NodeId source, Dist radius,
                            std::vector<NearNode>& out) {
  out.clear();
  ++version_;
  auto touch = [this](NodeId v) {
    if (stamp_[v] != version_) {
      stamp_[v] = version_;
      dist_[v] = kInfDist;
      parent_[v] = kInvalidNode;
      settled_[v] = 0;
    }
  };

  MinQueue q;
  touch(source);
  dist_[source] = 0;
  q.push({0, source});
  while (!q.empty()) {
    const auto [d, v] = q.top();
    q.pop();
    if (settled_[v] || d > dist_[v]) continue;
    settled_[v] = 1;
    out.push_back({v, parent_[v], d});
    for (const Neighbor& nb : g_.neighbors(v)) {
      const Dist nd = d + nb.weight;
      if (nd > radius) continue;
      touch(nb.to);
      if (nd < dist_[nb.to] ||
          (nd == dist_[nb.to] && v < parent_[nb.to])) {
        dist_[nb.to] = nd;
        parent_[nb.to] = v;
        q.push({nd, nb.to});
      }
    }
  }
}

std::vector<NodeId> MultiSourceTree::PathFromSource(NodeId v) const {
  if (dist[v] >= kInfDist) return {};
  std::vector<NodeId> path;
  for (NodeId cur = v; cur != kInvalidNode; cur = parent[cur]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

MultiSourceTree MultiSourceDijkstra(const Graph& g,
                                    const std::vector<NodeId>& sources) {
  const NodeId n = g.num_nodes();
  MultiSourceTree t;
  t.dist.assign(n, kInfDist);
  t.parent.assign(n, kInvalidNode);
  t.closest.assign(n, kInvalidNode);

  MinQueue q;
  for (const NodeId s : sources) {
    // Smaller source id wins ties at the seed level.
    if (t.dist[s] == 0 && t.closest[s] != kInvalidNode &&
        t.closest[s] < s) {
      continue;
    }
    t.dist[s] = 0;
    t.closest[s] = s;
    q.push({0, s});
  }
  while (!q.empty()) {
    const auto [d, v] = q.top();
    q.pop();
    if (d > t.dist[v]) continue;
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      const bool better =
          nd < t.dist[nb.to] ||
          (nd == t.dist[nb.to] && t.closest[v] < t.closest[nb.to]);
      if (better) {
        t.dist[nb.to] = nd;
        t.parent[nb.to] = v;
        t.closest[nb.to] = t.closest[v];
        q.push({nd, nb.to});
      }
    }
  }
  return t;
}

Dist PathLength(const Graph& g, const std::vector<NodeId>& path) {
  if (path.size() < 2) return 0;
  Dist total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const std::optional<Neighbor> arc = g.CheapestArc(path[i], path[i + 1]);
    if (!arc) return kInfDist;
    total += arc->weight;
  }
  return total;
}

}  // namespace disco
