#include "sim/metrics.h"

// disco-lint: allow-file(relaxed-atomic): per-edge congestion counters are
// commutative fetch_adds; the parallel_for join sequences the final loads,
// so the totals are exact and order-free.

#include <algorithm>
#include <atomic>
#include <numeric>
#include <unordered_set>

#include "graph/shortest_path.h"
#include "runtime/parallel_for.h"
#include "runtime/rng_stream.h"
#include "util/rng.h"

namespace disco {

EdgeId EdgeUsed(const Graph& g, NodeId a, NodeId b) {
  EdgeId best = kInvalidNode;
  Dist best_w = kInfDist;
  for (const Neighbor& nb : g.neighbors(a)) {
    if (nb.to == b && nb.weight < best_w) {
      best_w = nb.weight;
      best = nb.edge;
    }
  }
  return best;
}

std::vector<double> SampleStretch(const Graph& g, const RouteFn& route,
                                  const StretchOptions& options,
                                  std::vector<StretchSample>* details) {
  const NodeId n = g.num_nodes();
  std::vector<double> stretches;
  if (n < 2) return stretches;

  // One task per sampled source: its RNG stream, ground-truth Dijkstra and
  // route probes are independent of every other source, so the fan-out is
  // embarrassingly parallel and — because each stream is keyed by the task
  // index — bit-identical for any thread count.
  const std::size_t sources =
      (options.num_pairs + options.dests_per_source - 1) /
      options.dests_per_source;
  std::vector<std::vector<StretchSample>> per_source(sources);
  runtime::ParallelForTasks(sources, [&](std::size_t i) {
    Rng rng = runtime::TaskRng(options.seed ^ 0x57e7c4a11dULL, i);
    const NodeId s = static_cast<NodeId>(rng.NextBelow(n));
    const ShortestPathTree truth = Dijkstra(g, s);
    for (std::size_t j = 0; j < options.dests_per_source; ++j) {
      NodeId t = static_cast<NodeId>(rng.NextBelow(n));
      if (t == s || !truth.reachable(t)) continue;

      StretchSample sample;
      sample.s = s;
      sample.t = t;
      sample.shortest = truth.dist[t];
      const Route r = route(s, t);
      if (!r.ok()) {
        sample.failed = true;
      } else {
        sample.routed = r.length;
        sample.stretch = StretchOf(r.length, truth.dist[t]);
      }
      per_source[i].push_back(sample);
    }
  });

  // Merge in source order, capping successful pairs at num_pairs, so the
  // result sequence is a pure function of (graph, options).
  for (const auto& samples : per_source) {
    for (const StretchSample& sample : samples) {
      if (stretches.size() >= options.num_pairs) return stretches;
      if (details != nullptr) details->push_back(sample);
      if (!sample.failed) stretches.push_back(sample.stretch);
    }
  }
  return stretches;
}

std::vector<std::size_t> CongestionCounts(const Graph& g,
                                          const RouteFn& route,
                                          std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  // Every source routes one packet; destinations are drawn from per-source
  // RNG streams and edge charges are relaxed atomic increments, so the
  // final integer counts are thread-count-invariant.
  std::vector<std::atomic<std::size_t>> shared(g.num_edges());
  for (auto& c : shared) c.store(0, std::memory_order_relaxed);
  runtime::ParallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t si = lo; si < hi; ++si) {
      const NodeId s = static_cast<NodeId>(si);
      Rng rng = runtime::TaskRng(seed ^ 0xc049e5710eULL, s);
      NodeId t = s;
      while (t == s && n > 1) t = static_cast<NodeId>(rng.NextBelow(n));
      if (t == s) continue;
      const Route r = route(s, t);
      for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
        const EdgeId e = EdgeUsed(g, r.path[i], r.path[i + 1]);
        if (e != kInvalidNode) {
          shared[e].fetch_add(1, std::memory_order_relaxed);
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
