// Shared evaluation harness: stretch sampling, per-edge congestion counts,
// and state collection — the measurement machinery behind every figure.
//
// Sampling follows §5.1: "for large topologies, we sample a fraction of
// nodes or source-destination pairs to compute state, stretch, and
// congestion." Sources are sampled and a Dijkstra per source provides the
// ground-truth distances for several destinations, amortizing the cost.
#pragma once

#include <cstdint>
#include <functional>
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

struct StretchOptions {
  std::size_t num_pairs = 1000;
  std::uint64_t seed = 1;
};

/// Samples random (s, t) pairs, routes each, and returns per-pair stretch.
/// Failed routes (empty path) are recorded with failed = true and excluded
/// from the returned stretch values; inspect `details` for failures.
std::vector<double> SampleStretch(const Graph& g, const RouteFn& route,
                                  const StretchOptions& options,
                                  std::vector<StretchSample>* details =
                                      nullptr);

/// The congestion experiment of Fig. 4/5/10: every node routes one packet
/// to a uniformly random destination; returns how many routes cross each
/// undirected edge (index = EdgeId; includes zero-count edges).
std::vector<std::size_t> CongestionCounts(const Graph& g,
                                          const RouteFn& route,
                                          std::uint64_t seed);

/// Uniform sample (without replacement if possible) of node ids, for state
/// CDFs over sampled nodes.
std::vector<NodeId> SampleNodes(NodeId n, std::size_t count,
                                std::uint64_t seed);

}  // namespace disco
