#include "routing/landmark_trees.h"

#include <cassert>

#include "graph/io.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "store/tree_codec.h"
#include "util/parse_int.h"
#include "util/sha256.h"

namespace disco {

// Fingerprint of the landmark id list — the "landmark set" component of
// every tree artifact's key (keying: graph fingerprint, landmark set,
// root, codec version). Two runs agree on it iff they selected the same
// set, e.g. by deriving it from the same (n, seed, Params).
std::string LandmarkSetFingerprintHex(const LandmarkSet& landmarks) {
  Sha256 h;
  h.Update("disco-landmark-set-v1");
  for (const NodeId l : landmarks.landmarks) {
    const std::uint32_t v = l;
    h.Update(&v, sizeof v);
  }
  return Sha256HexOf(h.Finalize());
}

store::ArtifactKey LandmarkTreeArtifactKey(const std::string& graph_fp_hex,
                                           const std::string& set_fp_hex,
                                           NodeId root) {
  store::ArtifactKey key;
  key.kind = "ltree";
  key.graph = graph_fp_hex;
  key.scope = "set=" + set_fp_hex + ";root=" + std::to_string(root);
  key.version = store::kTreeCodecVersion;
  return key;
}

LandmarkTreeCache::LandmarkTreeCache(const Graph& g,
                                     const LandmarkSet& landmarks,
                                     std::size_t capacity)
    : g_(g), landmarks_(landmarks), memo_(capacity) {
  store_ = store::ProcessStore();
  if (store_ != nullptr) {
    // One O(m) fingerprint pass buys every tree of this graph a store
    // key; negligible next to a single landmark Dijkstra.
    graph_fp_ = GraphFingerprintHex(g_);
    set_fp_ = LandmarkSetFingerprintHex(landmarks_);
  }
}

store::ArtifactKey LandmarkTreeCache::KeyFor(NodeId l) const {
  return LandmarkTreeArtifactKey(graph_fp_, set_fp_, l);
}

std::shared_ptr<const ShortestPathTree> LandmarkTreeCache::LoadOrCompute(
    NodeId l) {
  if (store_ != nullptr) {
    if (const auto reader = store_->Open(KeyFor(l))) {
      DISCO_TRACE_SPAN("store.decode");
      auto tree = std::make_shared<ShortestPathTree>();
      // The root check closes the last unvalidated field: a valid tree of
      // this graph but another root (misfiled object) must read as a
      // miss, not silently poison every route through this landmark.
      if (reader->frame_count() >= 1 &&
          store::DecodeTree(g_, reader->frame(0).data(),
                            reader->frame(0).size(), tree.get()) &&
          tree->source == l) {
        store::Counters().tree_store_hits.Inc();
        return tree;
      }
      // Structurally invalid for this graph (or torn): fall through and
      // recompute; the write-back below republishes a good object.
    }
  }
  std::shared_ptr<const ShortestPathTree> tree;
  {
    DISCO_TRACE_SPAN("store.dijkstra");
    tree = std::make_shared<const ShortestPathTree>(Dijkstra(g_, l));
  }
  store::Counters().tree_dijkstras.Inc();
  if (store_ != nullptr) {
    DISCO_TRACE_SPAN("store.writeback");
    const std::string frame = store::EncodeTree(g_, *tree);
    if (!frame.empty() && store_->Put(KeyFor(l), {frame})) {
      store::Counters().tree_writebacks.Inc();
    }
  }
  return tree;
}

std::shared_ptr<const ShortestPathTree> LandmarkTreeCache::Tree(NodeId l) {
  assert(landmarks_.Contains(l));
  bool missed = false;
  auto tree = memo_.Get(l, [&](NodeId root) {
    missed = true;
    return LoadOrCompute(root);
  });
  if (!missed) store::Counters().tree_ram_hits.Inc();
  return tree;
}

std::size_t PrewarmEntryBudget() {
  // Full-scale runs export DISCO_TREE_CACHE_ENTRIES to let e.g. the
  // 192k-node router map's ~1.5k trees stay resident (count * n entries)
  // without a code edit.
  return EnvIntOr<std::size_t>("DISCO_TREE_CACHE_ENTRIES", 32u << 20, 1);
}

void LandmarkTreeCache::Prewarm() {
  const std::vector<NodeId>& all = landmarks_.landmarks;
  if (all.empty() || all.size() > memo_.capacity()) return;
  if (all.size() * static_cast<std::size_t>(g_.num_nodes()) >
      PrewarmEntryBudget()) {
    return;
  }
  if (runtime::ThreadPool::Shared().parallelism() == 1) return;  // stay lazy
  memo_.Prewarm(all, [this](NodeId l) { return LoadOrCompute(l); });
}

}  // namespace disco
