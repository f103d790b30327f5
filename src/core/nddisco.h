// NDDisco (§4.2): the name-dependent distributed compact routing protocol
// underlying Disco, a distributed realization of Thorup–Zwick's
// handshaking-based scheme [44].
//
// Converged state per node: shortest paths to all Θ(sqrt(n ln n)) landmarks
// and to the k = Θ(sqrt(n ln n)) closest nodes (the vicinity). A node's
// address is (l_v, explicit route l_v ; v). Given the destination's
// address, the first packet takes s ; l_t ; t (stretch ≤ 5); the handshake
// then lets t install the direct path when s ∈ V(t), and every later packet
// has stretch ≤ 3 (often 1).
//
// This class is the static simulator's view: it materializes the routes the
// converged distributed protocol would use, with the shortcutting
// heuristics of Fig. 6 applied on top. The DES in src/sim/ reproduces the
// convergence messaging of the same protocol.
#pragma once

#include <memory>

#include "core/name_resolution.h"
#include "core/route.h"
#include "core/shortcut.h"
#include "core/state.h"
#include "graph/graph.h"
#include "routing/address.h"
#include "routing/landmark_trees.h"
#include "routing/landmarks.h"
#include "routing/params.h"
#include "routing/vicinity.h"

namespace disco {

class NdDisco {
 public:
  NdDisco(const Graph& g, const Params& params);

  /// Operator-chosen landmarks (§6): any set works as long as each node
  /// keeps a landmark in its vicinity; the stretch machinery is unchanged.
  NdDisco(const Graph& g, const Params& params, LandmarkSet landmarks);

  const Graph& graph() const { return *g_; }
  const Params& params() const { return params_; }
  const LandmarkSet& landmarks() const { return landmarks_; }
  const AddressBook& addresses() const { return addresses_; }
  std::size_t vicinity_size() const { return vicinities_.k(); }

  /// The converged vicinity of v (memoized).
  std::shared_ptr<const Vicinity> vicinity(NodeId v) {
    return vicinities_.Get(v);
  }

  /// Bulk-computes the vicinities of `nodes` over the runtime thread pool
  /// (wall-clock only; contents are deterministic). Use before a sweep
  /// that routes from a known set of sources.
  void PrewarmVicinities(const std::vector<NodeId>& nodes) {
    vicinities_.Prewarm(nodes);
  }

  /// Fans every landmark-tree Dijkstra out over the thread pool up front
  /// (when the whole set fits in the cache). For sweeps that will touch
  /// most landmarks anyway; ad-hoc routing should stay lazy/LRU.
  void PrewarmLandmarkTrees() { trees_.Prewarm(); }

  /// The parents of landmark l's Dijkstra tree (memoized); how every node
  /// knows its shortest path to l.
  std::shared_ptr<const ParentTree> LandmarkTree(NodeId l) {
    return trees_.Tree(l);
  }

  /// Whether u can route to t with no extra information: t is a landmark
  /// or t ∈ V(u).
  bool KnowsDirect(NodeId u, NodeId t);

  /// The shortest path u -> t if KnowsDirect(u, t); empty otherwise.
  std::vector<NodeId> DirectPath(NodeId u, NodeId t);

  /// The planned first-packet path (before shortcutting): direct if s knows
  /// t, else s ; l_t ; t via t's address.
  std::vector<NodeId> FirstPacketPlan(NodeId s, NodeId t);

  /// Routes the first packet of a flow, s knowing t's address
  /// (name-dependent model). Worst-case stretch 5.
  Route RouteFirst(NodeId s, NodeId t,
                   Shortcut mode = Shortcut::kNoPathKnowledge);

  /// Routes packets after the handshake: direct if either endpoint has the
  /// other in its vicinity, else via l_t. Worst-case stretch 3 w.h.p.
  Route RouteLater(NodeId s, NodeId t,
                   Shortcut mode = Shortcut::kNoPathKnowledge);

  /// Data-plane state of node v (§4.5): landmark routes, vicinity routes,
  /// forwarding-label map, plus hosted resolution records when `resolution`
  /// is provided and v is a landmark.
  StateBreakdown State(NodeId v, const ResolutionDb* resolution = nullptr);

  /// Shortcut oracles shared with Disco (which plans longer routes but
  /// shortcuts through the same converged tables).
  DirectPathFn MakeDirectOracle();
  VicinityFn MakeVicinityOracle();

  /// Finishes a plan: applies the shortcut mode and packages a Route.
  Route FinishPlan(std::vector<NodeId> plan,
                   const std::function<std::vector<NodeId>()>& reverse_plan,
                   Shortcut mode);

 private:
  const Graph* g_;
  Params params_;
  LandmarkSet landmarks_;
  AddressBook addresses_;
  VicinityCache vicinities_;
  LandmarkTreeCache trees_;
};

}  // namespace disco
