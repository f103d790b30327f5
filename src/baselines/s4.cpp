#include "baselines/s4.h"

// disco-lint: allow-file(relaxed-atomic): cluster-size counting uses
// commutative fetch_adds into per-node slots; the parallel_for join
// sequences every final load, so no relaxed op orders output data.

#include <algorithm>
#include <atomic>
#include <cassert>

#include "runtime/parallel_for.h"

namespace disco {

S4::S4(const Graph& g, const Params& params)
    : g_(&g), params_(params),
      landmarks_(SelectLandmarks(g.num_nodes(), params)),
      addresses_(g, landmarks_), trees_(g, landmarks_),
      names_(NameTable::Default(g.num_nodes())),
      resolution_(names_, landmarks_) {}

void S4::PrewarmLandmarkTrees() { trees_.Prewarm(); }

Dist S4::BallRadius(NodeId t) const {
  // The radius comes from the landmark-side Dijkstra while ball searches
  // sum from t's side; a relative epsilon keeps the boundary node (l_t
  // itself) inside despite last-ulp float divergence.
  return ClusterRadius(t) * (1 + 1e-12) + 1e-12;
}

std::shared_ptr<const Vicinity> S4::Ball(NodeId t) {
  return balls_.Get(t, [this](NodeId v) {
    return std::make_shared<const Vicinity>(
        Vicinity::Ball(*g_, v, BallRadius(v)));
  });
}

std::vector<NodeId> S4::PlanVia(NodeId from, NodeId t) {
  if (from == t) return {from};
  if (landmarks_.Contains(t)) {
    std::vector<NodeId> p = trees_.Tree(t)->PathTo(from);
    std::reverse(p.begin(), p.end());
    return p;
  }
  const auto ball = Ball(t);
  if (ball->Contains(from)) {
    // t ∈ C(from): direct shortest path (reverse of t's ball path to from).
    std::vector<NodeId> p = ball->PathTo(from);
    std::reverse(p.begin(), p.end());
    return p;
  }
  // Walk toward l_t; To-Destination is integral to S4 — cut over at the
  // first node whose cluster contains t. l_t itself always qualifies
  // (d(l_t, t) = d(t, l_t) ≤ ClusterRadius(t)).
  const NodeId lt = addresses_.closest_landmark(t);
  std::vector<NodeId> toward = trees_.Tree(lt)->PathTo(from);
  std::reverse(toward.begin(), toward.end());  // from ; l_t
  for (std::size_t i = 0; i < toward.size(); ++i) {
    if (!ball->Contains(toward[i])) continue;
    std::vector<NodeId> cut = ball->PathTo(toward[i]);
    std::reverse(cut.begin(), cut.end());  // toward[i] ; t
    toward.resize(i + 1);
    return JoinPaths(std::move(toward), cut);
  }
  // Should not happen once the epsilon radius holds, but stay correct:
  // complete the route with the explicit l_t ; t path from t's address,
  // as a real S4 landmark would.
  return JoinPaths(std::move(toward), addresses_.forest().PathFromSource(t));
}

Route S4::RouteLater(NodeId s, NodeId t) {
  Route r;
  r.path = PlanVia(s, t);
  r.length = PathLength(*g_, r.path);
  return r;
}

Route S4::RouteFirst(NodeId s, NodeId t) {
  // Local knowledge still short-circuits the location service.
  if (s == t || landmarks_.Contains(t) || Ball(t)->Contains(s)) {
    return RouteLater(s, t);
  }
  // Otherwise the packet rides to the resolution landmark owning h(t),
  // which knows t's address and forwards (SEATTLE-style). This detour is
  // what gives S4 unbounded first-packet stretch.
  const NodeId owner = resolution_.OwnerLandmark(names_.hash(t));
  std::vector<NodeId> to_owner = trees_.Tree(owner)->PathTo(s);
  std::reverse(to_owner.begin(), to_owner.end());
  Route r;
  r.path = JoinPaths(std::move(to_owner), PlanVia(owner, t));
  r.length = PathLength(*g_, r.path);
  return r;
}

const std::vector<std::size_t>& S4::ClusterSizes() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!cluster_sizes_.empty()) return cluster_sizes_;
  const NodeId n = g_->num_nodes();
  // w ∈ C(v)  ⇔  d(v,w) ≤ d(w,l_w)  ⇔  v ∈ Ball(w, radius_w):
  // enumerate each node's ball once and charge every member. The per-node
  // searches fan out over the pool; the charges are relaxed atomic
  // increments, whose sums are order-independent.
  std::vector<std::atomic<std::size_t>> counts(n);
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);
  runtime::ParallelFor(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t w = lo; w < hi; ++w) {
          const auto v = static_cast<NodeId>(w);
          for (const NearNode& m : WithinRadius(*g_, v, BallRadius(v))) {
            counts[m.node].fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      nullptr, std::max<std::size_t>(1, n / 256));
  cluster_sizes_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    cluster_sizes_[v] = counts[v].load(std::memory_order_relaxed);
  }
  return cluster_sizes_;
}

StateBreakdown S4::State(NodeId v) {
  StateBreakdown b;
  b.landmark_entries = landmarks_.count();
  b.cluster_entries = ClusterSizes()[v];
  b.label_entries = std::min<std::size_t>(
      g_->degree(v), b.landmark_entries + b.cluster_entries);
  b.resolution_entries = resolution_.EntriesAt(v);
  return b;
}

}  // namespace disco
