// Multi-graph experiment sweeps (the ROADMAP driver): expands a
// (topology × n × seed × scheme × scenario) grid into independent cells
// and runs each cell's measurements into one TSV row. Cells with a
// non-null scenario additionally run a replicated DES campaign
// (sim/campaign.h) of the scheme's protocol plane through the scripted
// disturbance and report reduced convergence columns.
//
// Distribution contract: the grid expansion is a pure function of the
// spec, and each cell is self-contained — it builds its own graph and
// converged scheme from (topology, n, seed) — so every cell is one
// independent exec::Executor task, and the table is byte-identical
// whichever backend (threads, procs, net) ran the cells.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "routing/params.h"
#include "sim/scenario.h"

namespace disco::api {

struct SweepSpec {
  std::vector<std::string> topologies;  // from TopologyFamilies()
  std::vector<NodeId> sizes;
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> schemes;  // registry keys
  /// Dynamics scenario kinds (sim/scenario.h); "null" cells measure the
  /// static scheme only, other kinds add a DES re-convergence campaign.
  std::vector<std::string> scenarios = {"null"};
  /// DES replicas per non-null-scenario cell (run in-process inside the
  /// cell, so sweep cells stay independent executor tasks).
  std::size_t replicas = 1;
  /// Shared scenario knobs (events, fraction, spacing, ...); `kind` is
  /// overridden by the cell's scenario axis value.
  ScenarioSpec scenario_base;
  /// Sampled source-destination pairs per cell (stretch measurement).
  std::size_t pairs = 200;
  /// Protocol sizing knobs; `base.seed` is overridden per cell.
  Params base;
};

/// One grid point: a converged scheme on one generated topology.
struct SweepCell {
  std::size_t index = 0;  // position in the full grid
  std::string topology;
  NodeId n = 0;
  std::uint64_t seed = 1;
  std::string scheme;
  std::string scenario = "null";
};

/// Expands the spec into cells, nested topology -> n -> seed -> scheme ->
/// scenario, with index = position. Deterministic: every worker process
/// of a distributed run computes the same expansion.
std::vector<SweepCell> ExpandGrid(const SweepSpec& spec);

/// TSV column header (with trailing newline) of the sweep table.
std::string SweepHeader();

/// One "#spec ..." comment line (with trailing newline) fingerprinting the
/// grid: topologies, sizes, seeds, schemes, scenarios, pairs and the sizing
/// knobs. A provenance line: the driver writes it first in sweep.tsv so
/// the table records which grid produced it.
std::string SweepSignature(const SweepSpec& spec);

/// Runs one cell: builds the topology and scheme, samples first/later
/// stretch (spec.pairs pairs, the cell seed), collects per-node state, and
/// renders one TSV row (with trailing newline). Returns "" for an
/// unregistered scheme or unknown/empty topology — the row is simply
/// absent, so validate the spec against RegisteredSchemes() and
/// TopologyFamilies() (graph/generators.h) up front (the disco_sweep
/// driver does).
std::string RunSweepCell(const SweepCell& cell, const SweepSpec& spec);

}  // namespace disco::api
