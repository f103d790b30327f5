#include "util/synopsis.h"

#include <cmath>

#include "graph/graph.h"

namespace disco {
namespace {

// SplitMix64 finalizer; mixes (element, bitmap index) into a uniform word.
std::uint64_t Mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Trailing zero count (64 for zero); C++17 stand-in for std::countr_zero.
int TrailingZeros(std::uint64_t word) {
  if (word == 0) return 64;
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctzll(word);
#else
  int tz = 0;
  while ((word & 1) == 0) {
    word >>= 1;
    ++tz;
  }
  return tz;
#endif
}

// Geometric level: P(level = k) = 2^-(k+1), capped at 63.
int Level(std::uint64_t word) {
  return std::min(TrailingZeros(word), 63);
}

constexpr double kFmPhi = 0.77351;  // Flajolet–Martin correction factor

}  // namespace

Synopsis Synopsis::ForElement(std::uint64_t element) {
  Synopsis s;
  for (std::size_t j = 0; j < s.bitmaps_.size(); ++j) {
    const std::uint64_t w = Mix(element * 0x9e3779b97f4a7c15ULL + j + 1);
    s.bitmaps_[j] = 1ULL << Level(w);
  }
  return s;
}

void Synopsis::Merge(const Synopsis& other) {
  for (std::size_t j = 0; j < bitmaps_.size(); ++j) {
    bitmaps_[j] |= other.bitmaps_[j];
  }
}

double Synopsis::Estimate() const {
  double sum_levels = 0;
  for (const std::uint64_t bm : bitmaps_) {
    // First-zero position: lowest bit index not set.
    sum_levels += TrailingZeros(~bm);
  }
  const double mean = sum_levels / static_cast<double>(bitmaps_.size());
  return std::pow(2.0, mean) / kFmPhi;
}

std::vector<double> GossipEstimates(const Graph& g, int rounds) {
  const std::size_t n = g.num_nodes();
  std::vector<Synopsis> cur;
  cur.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    cur.push_back(Synopsis::ForElement(v));
  }
  std::vector<Synopsis> next = cur;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t v = 0; v < n; ++v) {
      next[v] = cur[v];
      for (const std::uint32_t u :
           g.neighbor_ids(static_cast<NodeId>(v))) {
        next[v].Merge(cur[u]);
      }
    }
    std::swap(cur, next);
  }
  std::vector<double> est(n);
  for (std::size_t v = 0; v < n; ++v) est[v] = cur[v].Estimate();
  return est;
}

}  // namespace disco
