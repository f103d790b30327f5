#include "core/nddisco.h"

#include <algorithm>
#include <cassert>

#include "graph/shortest_path.h"

namespace disco {

NdDisco::NdDisco(const Graph& g, const Params& params)
    : NdDisco(g, params, SelectLandmarks(g.num_nodes(), params)) {}

NdDisco::NdDisco(const Graph& g, const Params& params, LandmarkSet landmarks)
    : g_(&g), params_(params), landmarks_(std::move(landmarks)),
      addresses_(g, landmarks_),
      vicinities_(g, VicinitySize(g.num_nodes(), params.vicinity_factor)),
      trees_(g, landmarks_) {}

bool NdDisco::KnowsDirect(NodeId u, NodeId t) {
  if (u == t) return true;
  if (landmarks_.Contains(t)) return true;
  return vicinities_.Get(u)->Contains(t);
}

std::vector<NodeId> NdDisco::DirectPath(NodeId u, NodeId t) {
  if (u == t) return {u};
  const auto vic = vicinities_.Get(u);
  if (vic->Contains(t)) return vic->PathTo(t);
  if (landmarks_.Contains(t)) {
    // u's landmark table holds the shortest path to t; materialized from
    // t's tree (t ; u reversed, same length in an undirected graph).
    std::vector<NodeId> p = trees_.Tree(t)->PathTo(u);
    std::reverse(p.begin(), p.end());
    return p;
  }
  return {};
}

std::vector<NodeId> NdDisco::FirstPacketPlan(NodeId s, NodeId t) {
  std::vector<NodeId> direct = DirectPath(s, t);
  if (!direct.empty()) return direct;

  const Address addr = addresses_.AddressOf(t);
  // Segment s ; l_t from s's landmark table.
  std::vector<NodeId> to_landmark = trees_.Tree(addr.landmark)->PathTo(s);
  std::reverse(to_landmark.begin(), to_landmark.end());
  // Segment l_t ; t is the explicit route in t's address.
  return JoinPaths(std::move(to_landmark), addr.route);
}

Route NdDisco::FinishPlan(
    std::vector<NodeId> plan,
    const std::function<std::vector<NodeId>()>& reverse_plan,
    Shortcut mode) {
  Route r;
  r.path = ApplyShortcutMode(mode, *g_, std::move(plan), reverse_plan,
                             MakeDirectOracle(), MakeVicinityOracle());
  r.length = PathLength(*g_, r.path);
  return r;
}

Route NdDisco::RouteFirst(NodeId s, NodeId t, Shortcut mode) {
  return FinishPlan(
      FirstPacketPlan(s, t), [this, s, t] { return FirstPacketPlan(t, s); },
      mode);
}

Route NdDisco::RouteLater(NodeId s, NodeId t, Shortcut mode) {
  // Handshake (§4.2): t checked whether s ∈ V(t); if so it told s the
  // direct path, which is simply the shortest path.
  if (vicinities_.Get(t)->Contains(s)) {
    Route r;
    r.path = vicinities_.Get(t)->PathTo(s);
    std::reverse(r.path.begin(), r.path.end());
    r.length = PathLength(*g_, r.path);
    return r;
  }
  // Otherwise later packets keep using the first-packet route (stretch ≤ 3
  // once both t ∉ V(s) and s ∉ V(t)).
  return RouteFirst(s, t, mode);
}

StateBreakdown NdDisco::State(NodeId v, const ResolutionDb* resolution) {
  StateBreakdown b;
  b.landmark_entries = landmarks_.count();
  b.vicinity_entries = std::min<std::size_t>(vicinities_.k(),
                                             g_->num_nodes());
  // §4.5: forwarding-label mappings are needed only for interfaces on
  // shortest paths to landmarks or vicinity members.
  b.label_entries = std::min<std::size_t>(
      g_->degree(v), b.landmark_entries + b.vicinity_entries);
  if (resolution != nullptr) b.resolution_entries = resolution->EntriesAt(v);
  return b;
}

DirectPathFn NdDisco::MakeDirectOracle() {
  return [this](NodeId u, NodeId t) { return DirectPath(u, t); };
}

VicinityFn NdDisco::MakeVicinityOracle() {
  return [this](NodeId u) { return vicinities_.Get(u); };
}

}  // namespace disco
