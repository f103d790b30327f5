#include "graph/shortest_path.h"

#include <algorithm>
#include <cstring>

namespace disco {
namespace {

// The one priority queue of every search here: a 4-ary min-heap with lazy
// deletion. Items order by (dist, node id); the id tie-break makes settling
// order, and therefore truncated vicinities, deterministic. Distances are
// non-negative, so their bit patterns compare like the values and the key
// is two integer compares. Four children per node halve the depth of a
// binary heap, and a node's children sit in 64 contiguous bytes.
class MinHeap {
 public:
  struct Item {
    std::uint64_t key;  // bit pattern of the distance
    NodeId node;

    Dist dist() const {
      Dist d;
      std::memcpy(&d, &key, sizeof d);
      return d;
    }
    bool operator<(const Item& o) const {
      return key < o.key || (key == o.key && node < o.node);
    }
  };

  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }

  void push(Dist d, NodeId v) {
    Item x{0, v};
    std::memcpy(&x.key, &d, sizeof d);
    std::size_t i = items_.size();
    items_.push_back(x);
    while (i > 0) {
      const std::size_t up = (i - 1) / 4;
      if (!(x < items_[up])) break;
      items_[i] = items_[up];
      i = up;
    }
    items_[i] = x;
  }

  Item pop() {
    const Item top = items_.front();
    const Item last = items_.back();
    items_.pop_back();
    const std::size_t n = items_.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (items_[c] < items_[best]) best = c;
      }
      if (!(items_[best] < last)) break;
      items_[i] = items_[best];
      i = best;
    }
    if (n > 0) items_[i] = last;
    return top;
  }

 private:
  std::vector<Item> items_;
};

// Working arrays of the truncated search, one set per thread, sized to the
// largest graph searched so far. Outside a search every entry is clean: a
// search records the nodes it reaches and resets only those.
struct SearchScratch {
  std::vector<Dist> dist;
  std::vector<NodeId> parent;
  std::vector<std::uint32_t> pos;  // settle position, kNoPosition before
  std::vector<NodeId> touched;     // nodes given a tentative distance
  MinHeap heap;
};

// Resets the touched entries when the search exits, by return or throw.
class ScratchLease {
 public:
  explicit ScratchLease(SearchScratch& s) : s_(s) {}
  ~ScratchLease() {
    for (const NodeId v : s_.touched) {
      s_.dist[v] = kInfDist;
      s_.parent[v] = kInvalidNode;
      s_.pos[v] = kNoPosition;
    }
    s_.touched.clear();
    s_.heap.clear();
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

 private:
  SearchScratch& s_;
};

// The search behind KNearest and WithinRadius: Dijkstra from `source` that
// settles at most k nodes and relaxes no arc past `bound`.
//
// Once k distinct nodes hold a tentative distance, the largest of those
// distances bounds the k-th member's true distance, so the bound drops to
// it. The cutoff cannot change the output: every member's final distance
// and min-id parent come from relaxations at or below the bound, and a
// node settled at the bound has no arc to scan, since weights are positive.
//
// Why this shape, measured on ConnectedGnm(16,384, 4n) (unit weights),
// k = 399, 1,024 random sources, on a shared 4-vCPU Xeon VM: the cutoff
// cuts a call from 3,574 arcs scanned and 2,895 pushes (mostly distance-4
// entries that were never popped) to 1,152 and 977, for the same 399 pops;
// the 4-ary heap shortens each push and pop; and resetting only the
// touched entries replaces three dense arrays (208 KB at this n) that were
// allocated and filled on every call. A call plus its Vicinity went from a
// median of 152-205 us to 67-84 us.
std::vector<NearNode> TruncatedSearch(const Graph& g, NodeId source,
                                      std::size_t k, Dist bound,
                                      std::vector<std::uint32_t>* parent_pos) {
  std::vector<NearNode> out;
  if (parent_pos != nullptr) parent_pos->clear();
  if (k == 0) return out;
  const NodeId n = g.num_nodes();
  if (k <= n) {  // an exact fit for vicinities; balls grow as they go
    out.reserve(k);
    if (parent_pos != nullptr) parent_pos->reserve(k);
  }

  thread_local SearchScratch s;
  if (s.pos.size() < n) {  // pos grows last, so a throw leaves it short
    s.dist.resize(n, kInfDist);
    s.parent.resize(n, kInvalidNode);
    s.pos.resize(n, kNoPosition);
  }
  const ScratchLease lease(s);

  // A node joins `touched` before its entries change, so the lease resets
  // every entry a throw can leave behind.
  auto tighten = [&] {
    if (s.touched.size() != k) return;
    Dist farthest = 0;
    for (const NodeId u : s.touched) farthest = std::max(farthest, s.dist[u]);
    bound = std::min(bound, farthest);
  };
  s.touched.push_back(source);
  s.dist[source] = 0;
  s.heap.push(0, source);
  tighten();
  while (!s.heap.empty() && out.size() < k) {
    const MinHeap::Item top = s.heap.pop();
    const NodeId v = top.node;
    const Dist d = top.dist();
    if (s.pos[v] != kNoPosition || d > s.dist[v]) continue;
    const NodeId p = s.parent[v];
    s.pos[v] = static_cast<std::uint32_t>(out.size());
    out.push_back({v, p, d});
    if (parent_pos != nullptr) {
      parent_pos->push_back(v == source ? kNoPosition : s.pos[p]);
    }
    if (d >= bound) continue;
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      if (nd > bound) continue;
      Dist& cur = s.dist[nb.to];
      if (nd < cur || (nd == cur && v < s.parent[nb.to])) {
        const bool first = cur == kInfDist;
        if (first) s.touched.push_back(nb.to);
        cur = nd;
        s.parent[nb.to] = v;
        s.heap.push(nd, nb.to);
        if (first) tighten();
      }
    }
  }
  return out;
}

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

  MinHeap q;
  q.push(0, source);
  while (!q.empty()) {
    const MinHeap::Item top = q.pop();
    const NodeId v = top.node;
    const Dist d = top.dist();
    if (d > t.dist[v]) continue;  // stale entry
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      if (nd < t.dist[nb.to] ||
          (nd == t.dist[nb.to] && v < t.parent[nb.to])) {
        t.dist[nb.to] = nd;
        t.parent[nb.to] = v;
        q.push(nd, nb.to);
      }
    }
  }
  return t;
}

std::vector<NearNode> KNearest(const Graph& g, NodeId source, std::size_t k,
                               std::vector<std::uint32_t>* parent_pos) {
  return TruncatedSearch(g, source, k, kInfDist, parent_pos);
}

std::vector<NearNode> WithinRadius(const Graph& g, NodeId source,
                                   Dist radius,
                                   std::vector<std::uint32_t>* parent_pos) {
  return TruncatedSearch(g, source, SIZE_MAX, radius, parent_pos);
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

  MinHeap q;
  for (const NodeId s : sources) {
    // Smaller source id wins ties at the seed level.
    if (t.dist[s] == 0 && t.closest[s] != kInvalidNode &&
        t.closest[s] < s) {
      continue;
    }
    t.dist[s] = 0;
    t.closest[s] = s;
    q.push(0, s);
  }
  while (!q.empty()) {
    const MinHeap::Item top = q.pop();
    const NodeId v = top.node;
    const Dist d = top.dist();
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
        q.push(nd, nb.to);
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
