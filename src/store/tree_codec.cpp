#include "store/tree_codec.h"

#include <vector>

#include "util/bitio.h"
#include "util/compact_label.h"

namespace disco::store {
namespace {

// Frame header: magic, node count, source — 96 bits before the per-node
// stream. The magic guards against handing a non-tree frame to the
// decoder; versioning lives in the artifact key, not here.
constexpr std::uint32_t kMagic = 0x444C5431;  // "DLT1"

}  // namespace

std::string EncodeTree(const Graph& g, const ShortestPathTree& t) {
  const NodeId n = g.num_nodes();
  if (t.dist.size() != n || t.parent.size() != n || t.source >= n) return "";
  if (t.dist[t.source] != 0 || t.parent[t.source] != kInvalidNode) return "";

  BitWriter w;
  w.Write(kMagic, 32);
  w.Write(n, 32);
  w.Write(t.source, 32);
  for (NodeId v = 0; v < n; ++v) {
    if (v == t.source) continue;
    const bool reach = t.dist[v] < kInfDist;
    w.Write(reach ? 1 : 0, 1);
    if (!reach) {
      if (t.parent[v] != kInvalidNode) return "";
      continue;
    }
    const NodeId p = t.parent[v];
    if (p >= n || t.dist[p] >= kInfDist) return "";
    // Find an arc v -> p whose weight explains dist[v] *exactly* — the arc
    // Dijkstra relaxed through qualifies, because dist[v] was assigned as
    // the identical float sum. Equality of finite nonnegative doubles is
    // bit equality here (negative zero cannot arise from positive
    // weights), which is what makes decode(encode(t)) == t byte-exact.
    const NeighborView arcs = g.neighbors(v);
    std::size_t iface = arcs.size();
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      if (arcs[i].to == p && t.dist[p] + arcs[i].weight == t.dist[v]) {
        iface = i;
        break;
      }
    }
    if (iface == arcs.size()) return "";  // tree does not match this graph
    w.Write(iface, LabelBits(g.degree(v)));
  }
  return std::string(reinterpret_cast<const char*>(w.bytes().data()),
                     w.byte_size());
}

bool DecodeTree(const Graph& g, const std::uint8_t* data, std::size_t size,
                ShortestPathTree* out) {
  const NodeId n = g.num_nodes();
  BitReader r(data, size * 8);
  if (r.bits_remaining() < 96) return false;
  if (r.Read(32) != kMagic) return false;
  if (r.Read(32) != n) return false;
  const NodeId source = static_cast<NodeId>(r.Read(32));
  if (source >= n) return false;

  // Pass 1: recover each node's parent arc straight from the bit stream
  // (no ordering constraints — interface indices only reference the
  // graph, which is already in memory).
  std::vector<std::uint32_t> iface(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (v == source) continue;
    if (r.bits_remaining() < 1) return false;
    if (r.Read(1) == 0) continue;  // unreachable
    const std::uint32_t degree = g.degree(v);
    if (degree == 0) return false;  // a reachable node must have an arc
    const int bits = LabelBits(degree);
    if (r.bits_remaining() < static_cast<std::size_t>(bits)) return false;
    const std::uint64_t idx = r.Read(bits);
    if (idx >= degree) return false;
    iface[v] = static_cast<std::uint32_t>(idx);
  }
  if (r.bits_remaining() >= 8) return false;  // trailing garbage

  out->source = source;
  out->dist.assign(n, kInfDist);
  out->parent.assign(n, kInvalidNode);
  out->dist[source] = 0;

  // Pass 2: materialize distances by walking each unresolved parent chain
  // up to the first node with a known distance, then unwinding the same
  // float sums Dijkstra performed. Amortized O(n): every node is resolved
  // exactly once. A chain longer than n nodes means a parent cycle —
  // structurally corrupt input.
  std::vector<NodeId> chain;
  for (NodeId v0 = 0; v0 < n; ++v0) {
    if (iface[v0] == kInvalidNode || out->dist[v0] < kInfDist) continue;
    chain.clear();
    NodeId v = v0;
    while (out->dist[v] >= kInfDist) {
      if (iface[v] == kInvalidNode) return false;  // parent marked absent
      if (chain.size() > n) return false;          // cycle
      chain.push_back(v);
      v = g.neighbors(v)[iface[v]].to;
      if (v >= n) return false;
    }
    for (std::size_t i = chain.size(); i-- > 0;) {
      const NodeId c = chain[i];
      const Neighbor& arc = g.neighbors(c)[iface[c]];
      out->parent[c] = arc.to;
      out->dist[c] = out->dist[arc.to] + arc.weight;
    }
  }
  return true;
}

}  // namespace disco::store
