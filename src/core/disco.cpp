#include "core/disco.h"

#include <utility>

#include "graph/shortest_path.h"

namespace disco {

Disco::Disco(const Graph& g, const Params& params)
    : Disco(g, params, NameTable::Default(g.num_nodes())) {}

Disco::Disco(const Graph& g, const Params& params, NameTable names,
             std::vector<double> n_estimates)
    : names_(std::move(names)), nd_(g, params),
      groups_(n_estimates.empty()
                  ? SloppyGroups(names_, g.num_nodes(),
                                 params.group_bits_offset)
                  : SloppyGroups(names_, n_estimates,
                                 params.group_bits_offset)),
      resolution_(names_, nd_.landmarks()),
      overlay_(names_, groups_, params) {}

std::vector<NodeId> Disco::FirstPacketPlan(NodeId s, NodeId t,
                                           NodeId* contact, bool* fallback) {
  std::vector<NodeId> direct = nd_.DirectPath(s, t);
  if (!direct.empty()) return direct;

  // Find the sloppy-group contact: the vicinity member with the longest
  // hash-prefix match against h(t).
  const auto vic = nd_.vicinity(s);
  const auto w = groups_.FindContact(*vic, t);
  if (w.has_value() && groups_.Stores(*w, t)) {
    if (contact) *contact = *w;
    // s ; w via the vicinity, then w routes on t's address: w ; l_t ; t.
    return JoinPaths(vic->PathTo(*w), nd_.FirstPacketPlan(*w, t));
  }

  // w.h.p.-never fallback (§4.4): query the landmark resolution DB. The
  // packet rides to the owner landmark, which knows t's address.
  if (fallback) *fallback = true;
  const NodeId owner = resolution_.OwnerLandmark(names_.hash(t));
  std::vector<NodeId> to_owner = nd_.LandmarkTree(owner)->PathTo(s);
  std::reverse(to_owner.begin(), to_owner.end());
  return JoinPaths(std::move(to_owner), nd_.FirstPacketPlan(owner, t));
}

Route Disco::RouteFirst(NodeId s, NodeId t, Shortcut mode) {
  NodeId contact = kInvalidNode;
  bool fallback = false;
  std::vector<NodeId> plan = FirstPacketPlan(s, t, &contact, &fallback);
  Route r = nd_.FinishPlan(
      std::move(plan),
      [this, s, t] {
        return FirstPacketPlan(t, s, nullptr, nullptr);
      },
      mode);
  r.contact = contact;
  r.via_fallback = fallback;
  return r;
}

Route Disco::RouteLater(NodeId s, NodeId t, Shortcut mode) {
  // After the first packet s holds t's address (NDDisco routing) *and*
  // remembers the route the first packet actually took; the flow keeps
  // whichever is shorter, so later packets never regress.
  Route later = nd_.RouteLater(s, t, mode);
  Route first = RouteFirst(s, t, mode);
  return first.length < later.length ? first : later;
}

Route Disco::RouteFirstByName(std::string_view from, std::string_view to,
                              Shortcut mode) {
  const auto s = names_.Find(from);
  const auto t = names_.Find(to);
  if (!s || !t) return Route{};
  return RouteFirst(*s, *t, mode);
}

StateBreakdown Disco::State(NodeId v) {
  StateBreakdown b = nd_.State(v, &resolution_);
  b.group_entries = groups_.StoredAddressCount(v);
  b.overlay_entries = overlay_.degree(v);
  return b;
}

}  // namespace disco
