// Concrete RoutingScheme adapters for every protocol in the repo. Generic
// harnesses should obtain these through the registry (api/registry.h);
// benches that need paper-specific internals (the overlay, the DES
// cross-check) can hold the concrete adapter and reach the underlying
// protocol object via impl().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/routing_scheme.h"
#include "baselines/s4.h"
#include "baselines/spf.h"
#include "baselines/vrr.h"
#include "core/disco.h"

namespace disco::api {

/// Disco (§4.4): name-independent routing, first-packet stretch ≤ 7.
class DiscoScheme : public RoutingScheme {
 public:
  DiscoScheme(const Graph& g, const Params& params);
  /// Shares an already-built protocol instance (see MakeSchemes, which
  /// builds one Disco for the "disco" and "nddisco" entries of a batch).
  explicit DiscoScheme(std::shared_ptr<Disco> impl);

  Disco& impl() { return *impl_; }
  std::shared_ptr<Disco> shared_impl() { return impl_; }

  const Graph& graph() const override { return impl_->graph(); }
  Route RouteFirst(NodeId s, NodeId t) override;
  Route RouteLater(NodeId s, NodeId t) override;
  StateBreakdown State(NodeId v) override;
  double StateBytes(NodeId v, double name_bytes) override;
  void PrewarmFor(const std::vector<NodeId>& sources) override;

 private:
  std::shared_ptr<Disco> impl_;
  std::vector<std::size_t> route_bytes_;  // lazy, for StateBytes
};

/// NDDisco (§4.2): the name-dependent layer, measured with the resolution
/// records its landmarks would host in the full system — the accounting of
/// Fig. 2/7. Wraps a full Disco instance so that accounting is exactly the
/// composite's (and so a batch can share one instance with DiscoScheme).
class NdDiscoScheme : public RoutingScheme {
 public:
  NdDiscoScheme(const Graph& g, const Params& params);
  explicit NdDiscoScheme(std::shared_ptr<Disco> impl);

  NdDisco& impl() { return owner_->nd(); }

  const Graph& graph() const override { return owner_->graph(); }
  Route RouteFirst(NodeId s, NodeId t) override;
  Route RouteLater(NodeId s, NodeId t) override;
  StateBreakdown State(NodeId v) override;
  double StateBytes(NodeId v, double name_bytes) override;
  void PrewarmFor(const std::vector<NodeId>& sources) override;

 private:
  std::shared_ptr<Disco> owner_;
  std::vector<std::size_t> route_bytes_;
};

/// S4 (Mao et al., NSDI'07): the closest prior compact routing protocol.
class S4Scheme : public RoutingScheme {
 public:
  S4Scheme(const Graph& g, const Params& params);

  S4& impl() { return *impl_; }

  const Graph& graph() const override { return impl_->graph(); }
  Route RouteFirst(NodeId s, NodeId t) override;
  Route RouteLater(NodeId s, NodeId t) override;
  StateBreakdown State(NodeId v) override;
  std::vector<double> CollectState() override;
  double StateBytes(NodeId v, double name_bytes) override;
  void PrewarmFor(const std::vector<NodeId>& sources) override;

 private:
  std::unique_ptr<S4> impl_;
  std::vector<std::size_t> route_bytes_;
};

/// VRR (Caesar et al., SIGCOMM'06): every packet routes the same way.
class VrrScheme : public RoutingScheme {
 public:
  VrrScheme(const Graph& g, const Params& params);

  Vrr& impl() { return *impl_; }

  const Graph& graph() const override { return impl_->graph(); }
  Route RouteFirst(NodeId s, NodeId t) override;
  Route RouteLater(NodeId s, NodeId t) override;
  StateBreakdown State(NodeId v) override;

 private:
  std::unique_ptr<Vrr> impl_;
};

/// Shortest-path / path-vector: the stretch-1, Ω(n)-state reference.
class SpfScheme : public RoutingScheme {
 public:
  SpfScheme(const Graph& g, const Params& params);

  ShortestPathRouting& impl() { return *impl_; }

  const Graph& graph() const override { return *g_; }
  Route RouteFirst(NodeId s, NodeId t) override;
  Route RouteLater(NodeId s, NodeId t) override;
  StateBreakdown State(NodeId v) override;

 private:
  const Graph* g_;
  std::unique_ptr<ShortestPathRouting> impl_;
};

}  // namespace disco::api
