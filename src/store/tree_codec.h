// Compact codec for landmark Dijkstra trees (store/ tier-2 payloads).
//
// A ShortestPathTree on the paper's router-level map costs 12 bytes per
// node in memory (8B distance + 4B parent). Almost all of that is
// redundant given the graph: the parent of v is one of v's CSR neighbors,
// and v's distance is exactly dist[parent] + w(parent,v) — the very sum
// Dijkstra computed when it settled v. So the codec stores, per node, only
// *which arc* leads to the parent: the interface index of (v -> parent)
// within neighbors(v), in ceil(log2(degree(v))) bits (LabelBits, the
// width of the explicit-route labels in util/compact_label.h), plus one
// reachability bit. On an average-degree-8 graph that is ~4.5 bits per
// node — about 4% of the in-memory footprint — and the decoder reproduces
// distances *bit-exactly* by re-evaluating the same float sums along the
// tree, so a bench run on decoded trees is byte-identical to a cold run.
//
// (This is the degenerate-delta form of parent-delta coding: the graph
// itself supplies both the parent id and the distance delta, so neither
// needs explicit bits.)
//
// Encoding is a pure sequential function of (graph, tree): byte-stable
// across thread counts and processes. Decoding validates structure
// (interface indices in range, parent chains acyclic, exact bit length)
// and fails cleanly on malformed frames; end-to-end corruption detection
// is the artifact store's per-frame checksum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/graph.h"
#include "graph/shortest_path.h"

namespace disco::store {

/// Bumped on any change to the frame layout; part of every artifact key,
/// so stale encodings can never be decoded by mistake.
inline constexpr std::uint32_t kTreeCodecVersion = 1;

/// Encodes `t`, which must be a Dijkstra tree of `g` (t = Dijkstra(g,
/// t.source)). Returns "" if the tree is inconsistent with `g` (wrong
/// size, or a parent/distance pair no arc of g explains) — callers treat
/// that as "do not store".
std::string EncodeTree(const Graph& g, const ShortestPathTree& t);

/// Decodes a frame produced by EncodeTree against the same graph. Returns
/// false (leaving *out unspecified) on any structural mismatch: wrong
/// node count, out-of-range interface index, parent cycle, or trailing
/// garbage. On success *out is bit-identical to the encoded tree.
bool DecodeTree(const Graph& g, const std::uint8_t* data, std::size_t size,
                ShortestPathTree* out);

inline bool DecodeTree(const Graph& g, const std::string& frame,
                       ShortestPathTree* out) {
  return DecodeTree(g, reinterpret_cast<const std::uint8_t*>(frame.data()),
                    frame.size(), out);
}

/// The in-memory footprint the codec is measured against (dist + parent
/// vectors); the store_codec_test asserts encodings stay under half this.
inline std::size_t TreeMemoryBytes(const ShortestPathTree& t) {
  return t.dist.size() * sizeof(Dist) + t.parent.size() * sizeof(NodeId);
}

}  // namespace disco::store
