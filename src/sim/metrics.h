// Shared evaluation harness: one pair sample per (graph, seed), stretch
// over that sample, per-edge congestion counts over a flow list, and node
// sampling for state CDFs — the measurement machinery behind every figure.
//
// Sampling follows §5.1: "for large topologies, we sample a fraction of
// nodes or source-destination pairs to compute state, stretch, and
// congestion." SamplePairs draws sources, runs one Dijkstra per source for
// the ground-truth distances of several destinations, and returns the
// candidate pairs. A caller builds it once per (graph, seed) and routes
// every scheme, phase and parameter row over it: SampleStretch and
// CongestionCounts run no Dijkstra of their own.
//
// Both route loops call the RouteFn concurrently from pool threads, so a
// RouteFn must be safe to call from several threads at once; any tally it
// keeps must be atomic or locked. Results never depend on the call order.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/route.h"
#include "graph/graph.h"

namespace disco {

/// A protocol under test, reduced to its routing behavior.
using RouteFn = std::function<Route(NodeId s, NodeId t)>;

struct StretchSample {
  NodeId s = kInvalidNode;
  NodeId t = kInvalidNode;
  Dist shortest = 0;
  Dist routed = 0;
  double stretch = 1.0;
  bool failed = false;
};

/// The candidate pairs of one stretch sample (s, t and shortest set; not
/// yet routed), as a pure function of (graph, num_pairs, seed):
/// destinations a source cannot reach, and t = s, are skipped at draw
/// time. SampleStretch keeps at most `num_pairs` successful routes; the
/// spare candidates stand in for failed ones.
struct PairSample {
  std::vector<StretchSample> candidates;
  std::size_t num_pairs = 0;
};

/// Draws ceil(num_pairs / 4) sources, each from its own TaskRng stream
/// with 4 destinations, in parallel; the list is the same at any thread
/// count.
PairSample SamplePairs(const Graph& g, std::size_t num_pairs,
                       std::uint64_t seed);

/// Routes every candidate of `sample` and returns per-pair stretch in
/// candidate order, up to `sample.num_pairs` successful pairs. Failed
/// routes (empty path) are recorded with failed = true and excluded from
/// the returned stretch values; inspect `details` for failures.
std::vector<double> SampleStretch(const PairSample& sample,
                                  const RouteFn& route,
                                  std::vector<StretchSample>* details =
                                      nullptr);

/// One packet to route, (source, destination), for the congestion
/// experiments.
using Flow = std::pair<NodeId, NodeId>;

/// The congestion experiment of Fig. 4/5: every node sends one packet to a
/// uniformly random other node, drawn from its own TaskRng stream.
std::vector<Flow> OneFlowPerNode(NodeId n, std::uint64_t seed);

/// Routes every flow and returns how many routes cross each undirected
/// edge (index = EdgeId; includes zero-count edges). The counts are
/// integers summed over flows, so they are the same at any thread count.
std::vector<std::size_t> CongestionCounts(const Graph& g,
                                          const std::vector<Flow>& flows,
                                          const RouteFn& route);

/// Uniform sample (without replacement if possible) of node ids, for state
/// CDFs over sampled nodes.
std::vector<NodeId> SampleNodes(NodeId n, std::size_t count,
                                std::uint64_t seed);

}  // namespace disco
