#include "sim/metrics.h"

// disco-lint: allow-file(relaxed-atomic): per-edge congestion counters are
// commutative fetch_adds; the parallel_for join sequences the final loads,
// so the totals are exact and order-free.

#include <atomic>
#include <numeric>
#include <unordered_set>

#include "graph/shortest_path.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "runtime/rng_stream.h"
#include "util/rng.h"

namespace disco {

PairSample SamplePairs(const Graph& g, std::size_t num_pairs,
                       std::uint64_t seed) {
  DISCO_TRACE_SPAN("sim.sample_pairs");
  PairSample sample;
  sample.num_pairs = num_pairs;
  const NodeId n = g.num_nodes();
  if (n < 2) return sample;

  // One task per sampled source: its RNG stream and ground-truth Dijkstra
  // are independent of every other source, and each stream is keyed by the
  // task index, so the list is bit-identical for any thread count.
  constexpr std::size_t kDestsPerSource = 4;  // amortizes the Dijkstra
  const std::size_t sources =
      (num_pairs + kDestsPerSource - 1) / kDestsPerSource;
  std::vector<std::vector<StretchSample>> per_source(sources);
  runtime::ParallelForTasks(sources, [&](std::size_t i) {
    Rng rng = runtime::TaskRng(seed ^ 0x57e7c4a11dULL, i);
    const NodeId s = static_cast<NodeId>(rng.NextBelow(n));
    const ShortestPathTree truth = Dijkstra(g, s);
    for (std::size_t j = 0; j < kDestsPerSource; ++j) {
      const NodeId t = static_cast<NodeId>(rng.NextBelow(n));
      if (t == s || !truth.reachable(t)) continue;
      per_source[i].push_back({s, t, truth.dist[t]});
    }
  });
  for (const auto& pairs : per_source) {
    sample.candidates.insert(sample.candidates.end(), pairs.begin(),
                             pairs.end());
  }
  return sample;
}

std::vector<double> SampleStretch(const PairSample& sample,
                                  const RouteFn& route,
                                  std::vector<StretchSample>* details) {
  std::vector<StretchSample> routed = sample.candidates;
  runtime::ParallelFor(0, routed.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      StretchSample& out = routed[i];
      const Route r = route(out.s, out.t);
      if (!r.ok()) {
        out.failed = true;
      } else {
        out.routed = r.length;
        out.stretch = StretchOf(r.length, out.shortest);
      }
    }
  });

  // Merge in candidate order, capping successful pairs at num_pairs, so the
  // result sequence is a pure function of (sample, route).
  std::vector<double> stretches;
  for (const StretchSample& out : routed) {
    if (stretches.size() >= sample.num_pairs) break;
    if (details != nullptr) details->push_back(out);
    if (!out.failed) stretches.push_back(out.stretch);
  }
  return stretches;
}

std::vector<Flow> OneFlowPerNode(NodeId n, std::uint64_t seed) {
  std::vector<Flow> flows;
  if (n < 2) return flows;
  flows.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    Rng rng = runtime::TaskRng(seed ^ 0xc049e5710eULL, s);
    NodeId t = s;
    while (t == s) t = static_cast<NodeId>(rng.NextBelow(n));
    flows.emplace_back(s, t);
  }
  return flows;
}

std::vector<std::size_t> CongestionCounts(const Graph& g,
                                          const std::vector<Flow>& flows,
                                          const RouteFn& route) {
  // Edge charges are relaxed atomic increments of integers, so the final
  // counts do not depend on which thread routed which flow.
  std::vector<std::atomic<std::size_t>> shared(g.num_edges());
  for (auto& c : shared) c.store(0, std::memory_order_relaxed);
  runtime::ParallelFor(0, flows.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t f = lo; f < hi; ++f) {
      const Route r = route(flows[f].first, flows[f].second);
      for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
        if (const auto arc = g.CheapestArc(r.path[i], r.path[i + 1])) {
          shared[arc->edge].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::size_t> counts(g.num_edges());
  for (std::size_t e = 0; e < counts.size(); ++e) {
    counts[e] = shared[e].load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<NodeId> SampleNodes(NodeId n, std::size_t count,
                                std::uint64_t seed) {
  std::vector<NodeId> out;
  if (count >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), 0);
    return out;
  }
  Rng rng(seed ^ 0x5a3b1e5ULL);
  std::unordered_set<NodeId> seen;
  while (out.size() < count) {
    const NodeId v = static_cast<NodeId>(rng.NextBelow(n));
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

}  // namespace disco
