// Log-linear latency histogram for the route-serving benchmark.
//
// HDR-style bucketing: values below 2^kSubBits nanoseconds get exact
// buckets; above that, each power-of-two octave is split into 2^kSubBits
// linear sub-buckets, so relative resolution stays within 1/2^kSubBits
// (~1.6%) across the whole range while the table stays a few KiB. Each
// serving thread records into its own instance — no atomics, no false
// sharing, nothing shared on the hot path — and the driver merges the
// per-thread instances after the loops join. Merging is plain bucket
// addition, so the merged counts are exactly the union of the per-thread
// counts: histogram totals are invariant under how queries were
// partitioned across threads (guarded by ServeHistogramTest).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace disco::serve {

class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records one latency sample (nanoseconds). Values past the last
  /// bucket (~18 minutes) saturate into it.
  void Record(std::uint64_t ns);

  /// Adds every bucket of `other` into this histogram.
  void Merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum_ns() const { return sum_; }

  /// Value (ns) at quantile q in [0, 1]: the representative (bucket lower
  /// bound) of the bucket holding the ceil(q * count)-th sample. 0 when
  /// empty. Exact below 2^kSubBits ns, within ~1.6% above.
  std::uint64_t ValueAtQuantile(double q) const;

  double mean_ns() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Bucket count resolution (see file comment).
  static constexpr int kSubBits = 6;

 private:
  static std::size_t BucketOf(std::uint64_t ns);
  static std::uint64_t BucketLowerBound(std::size_t bucket);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace disco::serve
