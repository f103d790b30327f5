// The unified protocol surface of the evaluation: every routing scheme the
// paper compares (Disco, NDDisco, S4, VRR, shortest-path) behind one
// polymorphic interface, so harnesses, examples and the sweep driver can
// select and drive protocols by name instead of wiring concrete classes.
//
// A scheme is a *converged* protocol instance on one graph: construction
// runs the (static-simulator) control plane; the virtual methods expose the
// data plane the figures measure — routing (first packet of a flow vs
// packets after the handshake), per-node state in table entries, and the
// Fig. 7 byte model. Schemes for which the first packet routes no
// differently (VRR, shortest-path) return the same route from both entry
// points and report distinguishes_first_packet() == false so harnesses can
// collapse the two rows.
//
// Determinism contract: every method is a pure function of (graph, Params)
// — two instances built from the same inputs return identical routes,
// state, and bytes, regardless of call order, sharing, or thread count.
#pragma once

#include <string>
#include <vector>

#include "core/route.h"
#include "core/state.h"
#include "graph/graph.h"
#include "routing/params.h"
#include "sim/metrics.h"

namespace disco::api {

/// Which packet of a flow a route_fn should simulate.
enum class Phase { kFirst, kLater };

/// Static metadata about a registered scheme — what a harness needs to lay
/// out columns before (or without) building an instance. The registry
/// (api/registry.h) holds the one table of these; every instance reads its
/// identity from it.
struct SchemeInfo {
  std::string name;        // registry key
  std::string label;       // display label for figure rows
  std::string short_name;  // compact label for table columns and TSV keys
  /// False when RouteFirst and RouteLater are the same function (VRR,
  /// shortest-path), so harnesses print one row instead of two.
  bool distinguishes_first_packet = true;
};

class RoutingScheme {
 public:
  virtual ~RoutingScheme() = default;

  /// Identity: the registry's SchemeInfo for this scheme's key.
  const std::string& name() const { return info_.name; }
  const std::string& label() const { return info_.label; }
  const std::string& short_name() const { return info_.short_name; }
  bool distinguishes_first_packet() const {
    return info_.distinguishes_first_packet;
  }

  virtual const Graph& graph() const = 0;

  /// First packet of a flow (destination known only by flat name where the
  /// protocol makes that distinction).
  virtual Route RouteFirst(NodeId s, NodeId t) = 0;

  /// Packets after the handshake.
  virtual Route RouteLater(NodeId s, NodeId t) = 0;

  /// Data-plane state of node v, in table entries (§4.5 accounting).
  virtual StateBreakdown State(NodeId v) = 0;

  /// State(v).total() for every node, fanned out over the runtime thread
  /// pool (thread-count-invariant). Overrides may bulk-compute shared
  /// structures first (S4 cluster sizes).
  virtual std::vector<double> CollectState();

  /// Bytes of routing state at v under `name_bytes`-byte node names — the
  /// Fig. 7 byte model. The default charges name + 1B next-hop per route
  /// entry and 1B per forwarding-label entry; Disco-family overrides add
  /// the stored-address records (which include explicit-route bytes).
  virtual double StateBytes(NodeId v, double name_bytes);

  /// Bulk-computes whatever converged structures a sweep from `sources`
  /// to arbitrary destinations will fault in anyway (landmark trees,
  /// source vicinities). Wall-clock only; never changes results. With a
  /// process artifact store attached (--store=, src/store/), prewarming
  /// resolves landmark trees from disk instead of recomputing them —
  /// loaded structures are bit-identical, so the contract is unchanged.
  virtual void PrewarmFor(const std::vector<NodeId>& sources);

  /// Bridges to the sim/metrics.h harness (SampleStretch over a
  /// PairSample, CongestionCounts over a flow list), which calls it
  /// concurrently from pool threads. The returned callable borrows `this`.
  RouteFn route_fn(Phase phase);

  /// Convenience: every node id, the natural PrewarmFor argument for
  /// whole-graph sweeps.
  std::vector<NodeId> AllNodes() const;

 protected:
  /// `key` must be registered: an adapter's identity is the registry's
  /// entry for that key.
  explicit RoutingScheme(const std::string& key);

 private:
  const SchemeInfo& info_;
};

}  // namespace disco::api
