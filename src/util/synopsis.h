// Synopsis diffusion (Nath et al. [36]) for estimating the network size n.
//
// Disco needs every node to know n within a constant factor (§4.1): n sets
// the landmark probability, the vicinity size and the sloppy-group prefix
// length. The paper proposes synopsis diffusion: each node contributes a
// tiny Flajolet–Martin synopsis, synopses are OR-merged by unstructured
// gossip with neighbors, and the merged synopsis yields a duplicate-
// insensitive count-distinct estimate (within ~10% with 256-byte synopses).
//
// A Synopsis here is 32 independent 64-bit FM bitmaps (the paper's 256-byte
// synopsis); a node sets, in each bitmap, the bit at a geometrically
// distributed level derived from a per-(node, bitmap) hash. Merging is bitwise OR — order- and
// duplicate-insensitive, which is what makes gossip robust.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace disco {

class Graph;

class Synopsis {
 public:
  /// An empty synopsis (counts zero elements).
  Synopsis() = default;

  /// The synopsis of the single element `element` (e.g. a node's hashed
  /// name). Deterministic in `element`.
  static Synopsis ForElement(std::uint64_t element);

  /// OR-merge: afterwards this synopsis covers the union of both element
  /// sets.
  void Merge(const Synopsis& other);

  /// Count-distinct estimate: 2^(mean first-zero level) / 0.77351.
  double Estimate() const;

  /// Wire size in bytes (8 per bitmap).
  std::size_t byte_size() const { return sizeof bitmaps_; }

  bool operator==(const Synopsis& other) const {
    return bitmaps_ == other.bitmaps_;
  }
  bool operator!=(const Synopsis& other) const { return !(*this == other); }

 private:
  static constexpr std::size_t kBitmaps = 32;
  std::array<std::uint64_t, kBitmaps> bitmaps_{};
};

/// Simulates synchronous gossip of synopses over g's adjacency for
/// `rounds` rounds (each round every node merges all neighbors'
/// previous-round synopses), then returns each node's estimate of n.
/// After diameter-many rounds all estimates coincide. Iterates the CSR
/// neighbor spans in place — no adjacency-list materialization.
std::vector<double> GossipEstimates(const Graph& g, int rounds);

}  // namespace disco
