// Deterministic query workload for the route-serving benchmark.
//
// The workload is a fixed set of logical client *streams*, each a closed
// loop of queries drawn from its own TaskRng(seed, stream) substream
// (runtime/rng_stream.h). The stream count is a workload parameter, NOT
// the thread count: serving threads are assigned whole streams round-robin
// (stream s runs on thread s % T), so the set of queries — destinations,
// phase schedule, and which queries fail deterministically — is
// byte-identical for any thread count and any run. Only timings vary.
//
// Each stream runs the same phase schedule in order:
//   steady   Zipf-distributed destinations over a seed-derived popularity
//            ranking of all nodes (skew = spec.zipf)
//   flash    a flash crowd: a fraction of queries collapses onto a small
//            hot set (the top of a second, independent ranking), the rest
//            stay Zipf — the tail-latency stressor
//   churn    destinations drawn as in steady, but a scenario-compiled
//            departed-node set (sim/scenario.h, kind "churn") is down;
//            queries to departed destinations are deterministic routing
//            failures
// Sources are uniform over the other nodes. Every draw comes from the
// stream's own RNG, so streams are mutually independent and replayable in
// isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace disco::serve {

enum class PhaseKind : std::uint8_t { kSteady = 0, kFlash = 1, kChurn = 2 };

const char* PhaseName(PhaseKind kind);

struct WorkloadSpec {
  /// Logical client streams (decoupled from serving threads).
  std::size_t streams = 64;
  /// Queries per stream per phase.
  std::size_t queries_per_stream = 2000;
  /// Zipf skew over the popularity ranking (0 = uniform).
  double zipf = 0.99;
  /// Flash-crowd phase: half of its queries go to a hot set of this size.
  bool flash = false;
  std::size_t hot_set = 8;
  /// Churn phase: 5% of nodes departed (scenario-compiled).
  bool churn = false;
};

struct Query {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PhaseKind phase = PhaseKind::kSteady;
  /// True when dst is departed during a churn phase: the query must be
  /// counted as a routing failure without consulting the scheme.
  bool dst_departed = false;
};

/// A compiled workload: pure value, a function of (spec, graph, seed).
class Workload {
 public:
  static Workload Build(const WorkloadSpec& spec, const Graph& g,
                        std::uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }
  const std::vector<PhaseKind>& phases() const { return phases_; }
  std::size_t streams() const { return spec_.streams; }
  /// Queries per stream across all phases.
  std::size_t queries_per_stream() const {
    return spec_.queries_per_stream * phases_.size();
  }
  std::size_t total_queries() const {
    return queries_per_stream() * streams();
  }
  bool departed(NodeId v) const {
    return !departed_.empty() && departed_[v] != 0;
  }

  /// Materializes stream s's closed loop, in order. Pure function of the
  /// workload and s — identical no matter which thread calls it, or when.
  std::vector<Query> Stream(std::size_t s) const;

  /// SHA-256 over every stream's (src, dst, phase, departed) sequence in
  /// stream order — the byte-identity fingerprint serve runs publish so
  /// two runs (any thread counts) can prove they served the same stream.
  std::string FingerprintHex() const;

  /// The full stream as TSV ("stream query phase src dst departed"), for
  /// byte-for-byte comparison across runs in serve_smoke.
  std::string DumpTsv() const;

 private:
  WorkloadSpec spec_;
  std::uint64_t seed_ = 0;
  NodeId n_ = 0;
  std::vector<PhaseKind> phases_;
  /// Popularity ranking: rank r -> node id (seed-derived permutation).
  std::vector<NodeId> rank_to_node_;
  /// Cumulative Zipf weights over ranks; cdf_[r] = P(rank <= r).
  std::vector<double> cdf_;
  /// Flash-crowd hot set (independent second ranking's head).
  std::vector<NodeId> hot_;
  /// departed_[v] != 0 when v is down during the churn phase.
  std::vector<std::uint8_t> departed_;
};

}  // namespace disco::serve
