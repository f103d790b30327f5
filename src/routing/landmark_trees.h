// Per-landmark shortest-path trees, computed lazily and memoized.
//
// Every node knows a shortest path to every landmark (§4.2); in the static
// simulator that knowledge is the parent array of the landmark's Dijkstra
// tree, whose chain from v materializes the s ; l segment of routes. The
// cache keeps parents only (a ParentTree, 4 B per node instead of 12): no
// route reads a landmark distance. Trees are O(n) each, so for the
// paper-scale maps the cache is bounded and the benches sort their sampled
// destinations by closest landmark to maximize reuse.
//
// Tiering: when the process has an artifact store attached (the benches'
// --store=<dir> flag, src/store/), the cache becomes two-level —
// RAM LRU -> store -> compute. A miss first tries to decode the tree from
// the store (store/tree_codec.h frames keyed by graph fingerprint +
// landmark set + root + codec version); only if that fails does it run
// the Dijkstra, and it then writes the encoded tree back so the next
// process loads instead of recomputing. Decoded trees are bit-identical
// to computed ones, so store-backed runs produce byte-identical output.
// The store frames hold full trees (store/tree_codec.h): write-back encodes
// the Dijkstra result before its distances are dropped, and a load decodes
// a full tree and keeps its parents.
// The RAM tier is the node memo (routing/node_memo.h) behind every cache
// of derived route state; tier traffic is counted only in the metrics
// registry (store::Counters(), the "[metrics] store trees:" line).
//
// The cache is thread-safe: concurrent routing tasks may miss on distinct
// landmarks and run their loads/Dijkstras in parallel (the lock covers
// only map bookkeeping). Prewarm() bulk-resolves the whole tree set over
// the runtime's thread pool when it fits in the cache.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "routing/landmarks.h"
#include "routing/node_memo.h"
#include "store/artifact_store.h"

namespace disco {

/// SHA-256 (hex) of the landmark id list — the "landmark set" component
/// of tree artifact keys.
std::string LandmarkSetFingerprintHex(const LandmarkSet& landmarks);

/// The artifact key under which landmark `root`'s tree is stored for a
/// given (graph fingerprint, landmark set fingerprint). One definition
/// shared by the cache's second tier and disco_store's prebuilder, so the
/// two can never disagree on where a tree lives.
store::ArtifactKey LandmarkTreeArtifactKey(const std::string& graph_fp_hex,
                                           const std::string& set_fp_hex,
                                           NodeId root);

/// A shortest-path tree without its distances: the part of a landmark's
/// tree that routes read. Unreachable nodes have parent == kInvalidNode.
struct ParentTree {
  NodeId source = kInvalidNode;
  std::vector<NodeId> parent;

  /// Path source -> v (inclusive of both endpoints). Empty if unreachable.
  std::vector<NodeId> PathTo(NodeId v) const;
};

/// The resident budget, in tree entries, of LandmarkTreeCache::Prewarm():
/// the DISCO_TREE_CACHE_ENTRIES env var when it is a positive integer,
/// else 32M.
std::size_t PrewarmEntryBudget();

class LandmarkTreeCache {
 public:
  /// `capacity` = number of trees kept resident. Attaches the process
  /// artifact store (store::ProcessStore()) as the second tier when one
  /// is open.
  LandmarkTreeCache(const Graph& g, const LandmarkSet& landmarks,
                    std::size_t capacity = 2048);

  /// The parents of the Dijkstra tree rooted at landmark `l` (l must be a
  /// landmark).
  /// Safe to call concurrently.
  std::shared_ptr<const ParentTree> Tree(NodeId l);

  /// Eagerly resolves every landmark tree in parallel (store load where
  /// possible, Dijkstra otherwise). All or nothing: a no-op unless the
  /// full set fits in the cache and its count * n tree entries fit
  /// PrewarmEntryBudget(), so paper-scale --full maps stay lazy/LRU unless
  /// the budget is raised. Purely a wall-clock optimization: cache
  /// contents are a deterministic function of the graph either way.
  void Prewarm();

  const LandmarkSet& landmarks() const { return landmarks_; }

  /// Number of distinct trees materialized (from either tier).
  std::size_t computed_count() const { return memo_.computed_count(); }

 private:
  /// The miss path: store load, else Dijkstra + write-back. Runs without
  /// the lock; safe to call concurrently for distinct (or equal) roots.
  std::shared_ptr<const ParentTree> LoadOrCompute(NodeId l);

  store::ArtifactKey KeyFor(NodeId l) const;

  const Graph& g_;
  const LandmarkSet& landmarks_;

  // Second tier; null when no process store is open. The graph and
  // landmark-set fingerprints are computed once at construction so
  // per-tree keys are cheap.
  store::ArtifactStore* store_ = nullptr;
  std::string graph_fp_;
  std::string set_fp_;

  NodeMemo<ParentTree> memo_;
};

}  // namespace disco
