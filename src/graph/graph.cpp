#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "runtime/parallel_for.h"

namespace disco {
namespace {

// Edge count above which GraphBuilder::Build lays the CSR out with the
// parallel two-pass plan. Below it the sequential fill is both faster and
// trivially identical to the historical FromEdges; above it the parallel
// plan reproduces the same arrays bit for bit (see Build).
constexpr std::size_t kParallelBuildEdges = std::size_t{1} << 15;

// The arrays GraphBuilder::Build lays out; the built graph and all of its
// copies view them through one shared backing.
struct BuiltSections {
  std::vector<std::uint64_t> offsets;
  std::vector<NodeId> arc_to;
  std::vector<EdgeId> arc_edge;
  std::vector<NodeId> ends;
  std::vector<double> weights;
};

}  // namespace

Graph Graph::FromEdges(NodeId n, Span<const WeightedEdge> edges) {
  GraphBuilder b(n, edges.size());
  b.Add(edges);
  return std::move(b).Build();
}

Graph Graph::FromSections(NodeId n, std::size_t m,
                          const std::uint64_t* offsets,
                          const NodeId* arc_to, const EdgeId* arc_edge,
                          const NodeId* ends, const double* weights,
                          std::shared_ptr<const void> backing) {
  Graph g;
  g.num_nodes_ = n;
  g.num_edges_ = m;
  g.offsets_ = offsets;
  g.arc_to_ = arc_to;
  g.arc_edge_ = arc_edge;
  g.ends_ = ends;
  g.weights_ = weights;
  g.backing_ = std::move(backing);
  return g;
}

int Graph::InterfaceTo(NodeId v, NodeId to) const {
  const auto ns = neighbor_ids(v);
  for (std::size_t i = 0; i < ns.size(); ++i) {
    if (ns[i] == to) return static_cast<int>(i);
  }
  return -1;
}

std::optional<Neighbor> Graph::CheapestArc(NodeId a, NodeId b) const {
  std::optional<Neighbor> best;
  for (const Neighbor& nb : neighbors(a)) {
    if (nb.to == b && (!best || nb.weight < best->weight)) best = nb;
  }
  return best;
}

Dist Graph::total_weight() const {
  Dist sum = 0;
  for (std::size_t e = 0; e < num_edges_; ++e) sum += weights_[e];
  return sum;
}

GraphBuilder::GraphBuilder(NodeId n, std::size_t reserve_edges) : n_(n) {
  ends_.reserve(2 * reserve_edges);
  weights_.reserve(reserve_edges);
}

void GraphBuilder::Add(NodeId a, NodeId b, Dist weight) {
  assert(a < n_ && b < n_);
  assert(weight > 0);
  if (a == b) return;  // self-loops carry no routing information
  ends_.push_back(a);
  ends_.push_back(b);
  weights_.push_back(weight);
}

Graph GraphBuilder::Build() && {
  const NodeId n = n_;
  const std::size_t m = weights_.size();
  auto s = std::make_shared<BuiltSections>();
  s->ends = std::move(ends_);
  s->weights = std::move(weights_);
  s->offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  s->arc_to.resize(2 * m);
  s->arc_edge.resize(2 * m);
  const NodeId* const ends = s->ends.data();
  const double* const weights = s->weights.data();
  std::uint64_t* const offsets = s->offsets.data();
  NodeId* const arc_to = s->arc_to.data();
  EdgeId* const arc_edge = s->arc_edge.data();

  if (m < kParallelBuildEdges) {
    // Sequential two-pass fill — the historical FromEdges layout: arcs of
    // each node appear in ascending edge-id order because edges are
    // scanned in id order.
    std::vector<std::uint32_t> deg(n, 0);
    for (std::size_t e = 0; e < m; ++e) {
      ++deg[ends[2 * e]];
      ++deg[ends[2 * e + 1]];
    }
    for (NodeId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + deg[v];
    std::vector<std::uint64_t> fill(offsets, offsets + n);
    for (std::size_t e = 0; e < m; ++e) {
      const NodeId a = ends[2 * e], b = ends[2 * e + 1];
      const EdgeId id = static_cast<EdgeId>(e);
      arc_to[fill[a]] = b;
      arc_edge[fill[a]++] = id;
      arc_to[fill[b]] = a;
      arc_edge[fill[b]++] = id;
    }
    return Graph::FromSections(n, m, offsets, arc_to, arc_edge, ends,
                               weights, std::move(s));
  }

  // Parallel plan: atomic degree histogram -> prefix sum -> atomic
  // placement of (edge id, to) pairs -> per-node sort by edge id. Within
  // one node's slice every edge id is distinct (self-loops were dropped;
  // parallel edges have distinct ids), so ascending edge id is a unique
  // total order — exactly the order the sequential fill produces — and
  // the result is bit-identical at any thread count. The atomics use the
  // default (sequentially consistent) order; on the architectures this
  // repo targets a contended fetch_add costs the same as a relaxed one,
  // and it keeps the determinism linter's relaxed-atomic rule moot.
  std::vector<std::atomic<std::uint32_t>> deg(n);
  runtime::ParallelFor(0, m, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t e = lo; e < hi; ++e) {
      deg[ends[2 * e]].fetch_add(1);
      deg[ends[2 * e + 1]].fetch_add(1);
    }
  });
  for (NodeId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + deg[v].load();

  std::vector<std::atomic<std::uint64_t>> cursor(n);
  runtime::ParallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) cursor[v].store(offsets[v]);
  });
  // One packed word per arc: (edge id << 32) | to. Placement order is
  // schedule-dependent; the sort below erases it.
  std::vector<std::uint64_t> packed(2 * m);
  runtime::ParallelFor(0, m, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t e = lo; e < hi; ++e) {
      const NodeId a = ends[2 * e], b = ends[2 * e + 1];
      const std::uint64_t id = static_cast<std::uint64_t>(e) << 32;
      packed[cursor[a].fetch_add(1)] = id | b;
      packed[cursor[b].fetch_add(1)] = id | a;
    }
  });
  runtime::ParallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      std::sort(packed.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                packed.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    }
  });
  runtime::ParallelFor(0, 2 * m, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      arc_to[i] = static_cast<NodeId>(packed[i]);
      arc_edge[i] = static_cast<EdgeId>(packed[i] >> 32);
    }
  });
  return Graph::FromSections(n, m, offsets, arc_to, arc_edge, ends, weights,
                             std::move(s));
}

}  // namespace disco
