#include "api/schemes.h"

namespace disco::api {
namespace {

// Explicit-route bytes of every node's address under `book` — the part of
// a stored address record that varies per destination (Fig. 7 byte model).
std::vector<std::size_t> RouteBytesOf(const AddressBook& book, NodeId n) {
  std::vector<std::size_t> out(n);
  for (NodeId v = 0; v < n; ++v) out[v] = book.AddressOf(v).route_bytes();
  return out;
}

// Bytes of the address records for `stored` destinations: two names (key
// and landmark) plus the explicit route.
double RecordBytes(const std::vector<NodeId>& stored,
                   const std::vector<std::size_t>& route_bytes,
                   double name_bytes) {
  double total = 0;
  for (const NodeId t : stored) {
    total += 2 * name_bytes + static_cast<double>(route_bytes[t]);
  }
  return total;
}

}  // namespace

// ----------------------------------------------------------------- Disco

DiscoScheme::DiscoScheme(const Graph& g, const Params& params)
    : DiscoScheme(std::make_shared<Disco>(g, params)) {}

DiscoScheme::DiscoScheme(std::shared_ptr<Disco> impl)
    : RoutingScheme("disco"), impl_(std::move(impl)) {}

Route DiscoScheme::RouteFirst(NodeId s, NodeId t) {
  return impl_->RouteFirst(s, t);
}

Route DiscoScheme::RouteLater(NodeId s, NodeId t) {
  return impl_->RouteLater(s, t);
}

StateBreakdown DiscoScheme::State(NodeId v) { return impl_->State(v); }

double DiscoScheme::StateBytes(NodeId v, double name_bytes) {
  if (route_bytes_.empty()) {
    route_bytes_ = RouteBytesOf(impl_->nd().addresses(), graph().num_nodes());
  }
  const StateBreakdown b = State(v);
  return (name_bytes + 1) * static_cast<double>(b.landmark_entries +
                                                b.vicinity_entries) +
         static_cast<double>(b.label_entries) +
         RecordBytes(impl_->resolution().OwnedNodes(v), route_bytes_,
                     name_bytes) +
         RecordBytes(impl_->groups().StoredAddresses(v), route_bytes_,
                     name_bytes) +
         name_bytes * static_cast<double>(b.overlay_entries);
}

void DiscoScheme::PrewarmFor(const std::vector<NodeId>& sources) {
  impl_->nd().PrewarmLandmarkTrees();
  impl_->nd().PrewarmVicinities(sources);
}

// --------------------------------------------------------------- NDDisco

NdDiscoScheme::NdDiscoScheme(const Graph& g, const Params& params)
    : NdDiscoScheme(std::make_shared<Disco>(g, params)) {}

NdDiscoScheme::NdDiscoScheme(std::shared_ptr<Disco> impl)
    : RoutingScheme("nddisco"), owner_(std::move(impl)) {}

Route NdDiscoScheme::RouteFirst(NodeId s, NodeId t) {
  return owner_->nd().RouteFirst(s, t);
}

Route NdDiscoScheme::RouteLater(NodeId s, NodeId t) {
  return owner_->nd().RouteLater(s, t);
}

StateBreakdown NdDiscoScheme::State(NodeId v) {
  return owner_->nd().State(v, &owner_->resolution());
}

double NdDiscoScheme::StateBytes(NodeId v, double name_bytes) {
  if (route_bytes_.empty()) {
    route_bytes_ = RouteBytesOf(owner_->nd().addresses(),
                                graph().num_nodes());
  }
  const StateBreakdown b = State(v);
  return (name_bytes + 1) * static_cast<double>(b.landmark_entries +
                                                b.vicinity_entries) +
         static_cast<double>(b.label_entries) +
         RecordBytes(owner_->resolution().OwnedNodes(v), route_bytes_,
                     name_bytes);
}

void NdDiscoScheme::PrewarmFor(const std::vector<NodeId>& sources) {
  owner_->nd().PrewarmLandmarkTrees();
  owner_->nd().PrewarmVicinities(sources);
}

// -------------------------------------------------------------------- S4

S4Scheme::S4Scheme(const Graph& g, const Params& params)
    : RoutingScheme("s4"), impl_(std::make_unique<S4>(g, params)) {}

Route S4Scheme::RouteFirst(NodeId s, NodeId t) {
  return impl_->RouteFirst(s, t);
}

Route S4Scheme::RouteLater(NodeId s, NodeId t) {
  return impl_->RouteLater(s, t);
}

StateBreakdown S4Scheme::State(NodeId v) { return impl_->State(v); }

std::vector<double> S4Scheme::CollectState() {
  impl_->ClusterSizes();  // one parallel pass instead of a lazy first State
  return RoutingScheme::CollectState();
}

double S4Scheme::StateBytes(NodeId v, double name_bytes) {
  if (route_bytes_.empty()) {
    route_bytes_ = RouteBytesOf(impl_->addresses(), graph().num_nodes());
  }
  const StateBreakdown b = State(v);
  return (name_bytes + 1) * static_cast<double>(b.landmark_entries +
                                                b.cluster_entries) +
         static_cast<double>(b.label_entries) +
         RecordBytes(impl_->resolution().OwnedNodes(v), route_bytes_,
                     name_bytes);
}

void S4Scheme::PrewarmFor(const std::vector<NodeId>& sources) {
  (void)sources;  // balls are per-destination and memoized on demand
  impl_->PrewarmLandmarkTrees();
}

// ------------------------------------------------------------------- VRR

VrrScheme::VrrScheme(const Graph& g, const Params& params)
    : RoutingScheme("vrr"), impl_(std::make_unique<Vrr>(g, params)) {}

Route VrrScheme::RouteFirst(NodeId s, NodeId t) {
  return impl_->RoutePacket(s, t);
}

Route VrrScheme::RouteLater(NodeId s, NodeId t) {
  return impl_->RoutePacket(s, t);
}

StateBreakdown VrrScheme::State(NodeId v) { return impl_->State(v); }

// ------------------------------------------------------------------- SPF

SpfScheme::SpfScheme(const Graph& g, const Params& params)
    // Destination-tree cache: every tree on the ~1k comparison graphs
    // (each is O(n) memory, so all of them fit), the fig10-style 512-entry
    // LRU on Internet-scale maps where n trees would not.
    : RoutingScheme("spf"),
      g_(&g),
      impl_(std::make_unique<ShortestPathRouting>(
          g, g.num_nodes() <= 2048 ? g.num_nodes() : 512)) {
  (void)params;  // shortest-path routing has no protocol knobs
}

Route SpfScheme::RouteFirst(NodeId s, NodeId t) {
  return impl_->RoutePacket(s, t);
}

Route SpfScheme::RouteLater(NodeId s, NodeId t) {
  return impl_->RoutePacket(s, t);
}

StateBreakdown SpfScheme::State(NodeId v) { return impl_->State(v); }

}  // namespace disco::api
