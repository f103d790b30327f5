#include "api/routing_scheme.h"

#include <cassert>

#include "api/registry.h"
#include "runtime/parallel_for.h"

namespace disco::api {
namespace {

const SchemeInfo& RegisteredInfo(const std::string& key) {
  const SchemeInfo* info = GetSchemeInfo(key);
  assert(info != nullptr);
  return *info;
}

}  // namespace

RoutingScheme::RoutingScheme(const std::string& key)
    : info_(RegisteredInfo(key)) {}

std::vector<double> RoutingScheme::CollectState() {
  std::vector<double> out(graph().num_nodes());
  // Disjoint index-addressed slots over converged tables: the series is
  // thread-count-invariant (the PR-1 determinism contract).
  runtime::ParallelFor(0, out.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t vi = lo; vi < hi; ++vi) {
      out[vi] = static_cast<double>(State(static_cast<NodeId>(vi)).total());
    }
  });
  return out;
}

double RoutingScheme::StateBytes(NodeId v, double name_bytes) {
  const StateBreakdown b = State(v);
  const std::size_t route_entries =
      b.total() - b.label_entries - b.overlay_entries;
  return (name_bytes + 1) * static_cast<double>(route_entries) +
         static_cast<double>(b.label_entries) +
         name_bytes * static_cast<double>(b.overlay_entries);
}

void RoutingScheme::PrewarmFor(const std::vector<NodeId>& sources) {
  (void)sources;  // nothing to prewarm by default
}

RouteFn RoutingScheme::route_fn(Phase phase) {
  if (phase == Phase::kFirst) {
    return [this](NodeId s, NodeId t) { return RouteFirst(s, t); };
  }
  return [this](NodeId s, NodeId t) { return RouteLater(s, t); };
}

std::vector<NodeId> RoutingScheme::AllNodes() const {
  std::vector<NodeId> all(graph().num_nodes());
  for (NodeId v = 0; v < graph().num_nodes(); ++v) all[v] = v;
  return all;
}

}  // namespace disco::api
