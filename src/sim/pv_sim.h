// Discrete-event simulation of path-vector convergence (§5's "messages per
// node until convergence", Fig. 8) and of re-convergence under scripted
// dynamics (node churn, link failures, partitions — sim/scenario.h).
//
// All three data planes — plain path vector, NDDisco, S4 — run the *same*
// asynchronous protocol and differ only in which route announcements a node
// accepts into its table (§4.2):
//   * path vector accepts every destination           -> Ω(n) state;
//   * NDDisco accepts landmarks + the k closest seen  -> Θ(sqrt(n log n));
//   * S4 accepts landmarks + its cluster rule d ≤ r_w -> unbounded.
//
// Mechanics: each node announces itself at t=0; a node that improves a
// table entry enqueues the update to each neighbor; per-link output queues
// coalesce pending updates for the same origin (RIB batching, as real
// routers do) and drain after the link's delay. Every per-origin update
// delivered over a link counts as one control message. The simulation runs
// to quiescence — guaranteed because a node only re-advertises on a strict
// distance improvement.
//
// Dynamics (config.scenario != nullptr): each table entry remembers the
// neighbor it was learned from, so when a scripted event removes topology
// the simulator can replay the protocol's withdrawal cascade — an entry is
// invalidated when its learned-from chain no longer reaches the origin
// over live links with consistent distances, each inherited invalidation
// is charged as one withdrawal message, and neighbors holding surviving
// routes re-announce them (triggered updates), from which the normal
// strict-improvement machinery re-converges. Healed links and rejoining
// nodes exchange full tables. A final revalidation pass runs at quiescence
// until a fixed point, so announcements that were in flight across a
// failure can never leave a stale entry behind. A null (empty) scenario
// leaves every byte of the static behavior unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "graph/graph.h"
#include "routing/landmarks.h"
#include "routing/params.h"
#include "sim/scenario.h"

namespace disco {

enum class PvMode {
  kPathVector,  // accept everything
  kNdDisco,     // landmarks + bounded k-closest vicinity
  kS4,          // landmarks + cluster rule (d(v,w) ≤ d(w, l_w))
};

/// One sampled point of a dynamic run: cumulative counters at the moment a
/// scenario event has just been applied (and once more at quiescence).
struct PvTracePoint {
  double time = 0;
  std::uint64_t messages = 0;     // cumulative, withdrawals included
  std::uint64_t withdrawals = 0;  // cumulative withdrawal share
  std::uint64_t table_entries = 0;  // live entries across live nodes
};

struct PvResult {
  std::uint64_t total_messages = 0;
  double messages_per_node = 0;
  double convergence_time = 0;  // simulated time of the last delivery
  /// Withdrawal messages charged by scenario invalidation cascades
  /// (included in total_messages; 0 for static runs).
  std::uint64_t total_withdrawals = 0;
  /// Final table: per node, the accepted origins and route distances.
  /// Ordered so callers can iterate without leaking hash-bucket order
  /// into their output.
  std::vector<std::map<NodeId, Dist>> tables;
  /// Per node, whether it is a live member at quiescence (all 1 for static
  /// runs and healing scenarios). Departed nodes have empty tables.
  std::vector<std::uint8_t> alive;
  /// One point per applied scenario event, plus a final point at
  /// quiescence. Empty for static runs.
  std::vector<PvTracePoint> trace;
  /// Final next hop (learned-from neighbor) per table entry; own-origin
  /// entries map to the node itself. Filled only when
  /// PvConfig::keep_next_hops is set.
  std::vector<std::map<NodeId, NodeId>> next_hops;
};

struct PvConfig {
  PvMode mode = PvMode::kPathVector;
  /// Landmarks for kNdDisco/kS4; must outlive the call. If null, selected
  /// from `params`.
  const LandmarkSet* landmarks = nullptr;
  Params params;
  /// Scripted dynamics; must outlive the call. nullptr (or an empty
  /// schedule) runs the static protocol, byte-identical to before the
  /// scenario layer existed.
  const Scenario* scenario = nullptr;
  /// Export PvResult::next_hops (costs memory; off by default).
  bool keep_next_hops = false;
};

/// Runs the protocol to convergence and returns message counts + tables.
PvResult SimulatePathVector(const Graph& g, const PvConfig& config);

}  // namespace disco
