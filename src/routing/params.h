// Protocol sizing knobs and the formulas behind them.
//
// The paper fixes three interlocking quantities (§4.2, §4.4):
//   landmark probability  p = sqrt(ln n / n)      -> ~sqrt(n ln n) landmarks
//   vicinity size         k = ceil(sqrt(n ln n))  -> every vicinity holds a
//                                                    landmark w.h.p.
//   sloppy-group bits     b = floor(log2(sqrt(n)/log2 n))
//                                                 -> groups of ~sqrt(n) log n
//                                                    nodes, so every vicinity
//                                                    intersects every group
//                                                    w.h.p.
// All three are scaled by Params factors so ablation benches can probe the
// constants.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace disco {

struct Params {
  /// Multiplier on the landmark probability sqrt(ln n / n).
  double landmark_prob_factor = 1.0;
  /// Multiplier on the vicinity size sqrt(n ln n).
  double vicinity_factor = 1.0;
  /// Long-distance overlay links per node (the paper evaluates 1 and 3).
  int fingers = 1;
  /// Extra bits added to the sloppy-group prefix length — the "+O(1)" in
  /// §4.5's b = floor(log2(sqrt(n)/log2 n) + O(1)). Positive values make
  /// groups smaller (less state, thinner vicinity∩group margin).
  int group_bits_offset = 0;
  /// Virtual points per landmark on the resolution ring (§4.5 suggests
  /// multiple hash functions to tame consistent hashing's imbalance).
  int resolution_virtual_points = 8;
  /// Master seed; all randomness (landmark flips, finger draws, sampling)
  /// derives from it.
  std::uint64_t seed = 1;
};

/// p = factor * sqrt(ln n / n), clamped to [0, 1].
double LandmarkProbability(NodeId n, double factor = 1.0);

/// k = ceil(factor * sqrt(n ln n)), clamped to [1, n].
std::size_t VicinitySize(NodeId n, double factor = 1.0);

/// b = floor(log2(sqrt(n)/log2 n)) for a node's own estimate of n,
/// clamped to [0, 62]. Nodes whose estimates differ by <2x differ by at
/// most one bit here — the property sloppy grouping relies on (§4.4).
int SloppyGroupBits(double n_estimate);

}  // namespace disco
