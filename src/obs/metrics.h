#ifndef DISCO_OBS_METRICS_H_
#define DISCO_OBS_METRICS_H_

// Unified metrics registry. One process-wide home for every counter and
// gauge in the repo (serve totals, store tiers, graph sources, executor
// events). Subsystems register named
// counters/gauges once (idempotent) and bump them on hot paths with a
// single relaxed atomic add; reporting happens in two shapes:
//
//   * PrometheusText() — standard text exposition (# HELP / # TYPE, one
//     family per metric name, optional {label="value"} sets). This is what
//     procs/net workers ship back to the coordinator over the kObs wire
//     frame so per-process counts aggregate into one registry.
//   * DumpText() — the human-facing "[metrics] <group>: k=v k=v" stderr
//     lines that replaced the old [store]/[graph] formats (smoke scripts
//     grep these).
//
// Counter/Gauge references returned by registration are stable for the
// registry's lifetime (deque storage, never reallocated).

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace disco {
namespace obs {

class MetricsRegistry;

// Monotonic counter (uint64). Relaxed increments are safe: accumulation is
// commutative and every reader (exposition/dump) runs after the workload's
// own joins.
class Counter {
 public:
  void Inc() { Add(1); }
  void Add(std::uint64_t n);
  void Set(std::uint64_t v);  // for test resets and merge accumulation
  std::uint64_t Value() const;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

// Gauge (int64): a value that can go up and down, e.g. live worker count.
class Gauge {
 public:
  void Inc() { Add(1); }
  void Dec() { Add(-1); }
  void Add(std::int64_t n);
  void Set(std::int64_t v);
  std::int64_t Value() const;

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<std::int64_t> value_{0};
};

using LabelSet = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers (or returns the existing) counter. `name` is the Prometheus
  // family name (e.g. "disco_store_tree_dijkstras_total"); `group`/`key`
  // place the metric on a "[metrics] <group>: key=value ..." dump line in
  // registration order. Identity is the full exposition name
  // (name + rendered labels).
  Counter& RegisterCounter(const std::string& name, const std::string& help,
                           const std::string& group, const std::string& key,
                           const LabelSet& labels = {});
  Gauge& RegisterGauge(const std::string& name, const std::string& help,
                       const std::string& group, const std::string& key,
                       const LabelSet& labels = {});

  // Prometheus text exposition, families sorted by name, series sorted by
  // exposition name within a family. Byte-stable for fixed values.
  std::string PrometheusText() const;

  // Human dump: one "[metrics] <group>: k1=v1 k2=v2\n" line per group, in
  // first-registration order of groups and keys. `note`, when non-empty,
  // is appended to every line as " (<note>)".
  std::string DumpText(const std::string& note = "") const;

  // Folds a Prometheus text exposition (from a worker process) into this
  // registry: counter samples add onto same-named series; gauge samples
  // and series this process never registered are ignored (gauges are
  // instantaneous; unknown series have no group/help to dump under —
  // callers that expect worker counters must register them before
  // merging). Unparseable lines are skipped. Returns samples merged.
  std::size_t MergeFromPrometheusText(const std::string& text);

  // How many worker expositions have been merged in (for dump notes).
  std::size_t MergedSourceCount() const { return merged_sources_; }
  void NoteMergedSource() { ++merged_sources_; }

 private:
  struct Impl;
  Impl* impl_;
  std::size_t merged_sources_ = 0;
};

// The process-wide registry every subsystem registers into.
MetricsRegistry& Global();

}  // namespace obs
}  // namespace disco

#endif  // DISCO_OBS_METRICS_H_
