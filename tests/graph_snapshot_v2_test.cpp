// The v2 snapshot contract end to end: a borrowed (zero-copy, mmap or
// in-memory view) graph must be observably identical to the owned graph
// it was encoded from — same fingerprint, same Dijkstra trees bit for
// bit, same protocol routes — and every way a v2 buffer can be wrong
// (flipped section byte, flipped header byte, truncation, foreign byte
// order, garbage, a retired v1 snapshot) must be rejected, never
// mis-decoded.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/disco.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/shortest_path.h"
#include "routing/params.h"
#include "util/bytes.h"
#include "util/sha256.h"

namespace disco {
namespace {

Graph TestGraph() {
  // Geometric: float weights exercise the weights section with
  // non-trivial bit patterns.
  return ConnectedGeometric(600, 8.0, 7);
}

// Rewrites the header SHA-256 after a deliberate header edit, so a test
// reaches the check *behind* the hash (e.g. the endian tag) instead of
// tripping the hash first.
void FixHeaderHash(std::string* bytes) {
  constexpr std::size_t kHeaderHashOff = 272;
  ASSERT_GE(bytes->size(), kHeaderHashOff + 32);
  const Sha256Digest d =
      Sha256Hash(std::string_view(bytes->data(), kHeaderHashOff));
  std::memcpy(&(*bytes)[kHeaderHashOff], d.data(), d.size());
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(GraphFingerprintHex(a), GraphFingerprintHex(b));
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "node " << v;
    const Span<const NodeId> na = a.neighbor_ids(v);
    const Span<const NodeId> nb = b.neighbor_ids(v);
    ASSERT_EQ(na.size(), nb.size());
    ASSERT_EQ(std::memcmp(na.data(), nb.data(), na.size() * sizeof(NodeId)),
              0)
        << "node " << v;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const WeightedEdge ea = a.edge(e);
    const WeightedEdge eb = b.edge(e);
    ASSERT_EQ(ea.a, eb.a) << "edge " << e;
    ASSERT_EQ(ea.b, eb.b) << "edge " << e;
    ASSERT_EQ(ea.weight, eb.weight) << "edge " << e;
  }
}

TEST(SnapshotV2, OwnedDecodeMatchesOriginal) {
  const Graph g = TestGraph();
  EXPECT_FALSE(g.borrowed());
  const std::string bytes = GraphSnapshotBytes(g);
  const std::uint64_t before = GraphLoadCounters().decode_loads.Value();
  const auto loaded = LoadGraphSnapshotBytes(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(GraphLoadCounters().decode_loads.Value(), before + 1);
  ExpectSameGraph(g, *loaded);
}

TEST(SnapshotV2, BorrowedFileViewMatchesOriginal) {
  const Graph g = TestGraph();
  const std::string path = testing::TempDir() + "/snap_v2_view.bin";
  ASSERT_TRUE(SaveGraphSnapshot(g, path));
  const std::uint64_t before = GraphLoadCounters().mmap_loads.Value();
  const auto view = LoadGraphSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->borrowed());
  EXPECT_EQ(GraphLoadCounters().mmap_loads.Value(), before + 1);
  ExpectSameGraph(g, *view);

  // Dijkstra over the view must be bit-identical — same dist doubles,
  // same parent arcs — from a spread of sources.
  for (NodeId src = 0; src < g.num_nodes(); src += 97) {
    const ShortestPathTree ta = Dijkstra(g, src);
    const ShortestPathTree tb = Dijkstra(*view, src);
    ASSERT_EQ(ta.dist.size(), tb.dist.size());
    ASSERT_EQ(std::memcmp(ta.dist.data(), tb.dist.data(),
                          ta.dist.size() * sizeof(Dist)),
              0)
        << "source " << src;
    ASSERT_EQ(ta.parent, tb.parent) << "source " << src;
  }
}

TEST(SnapshotV2, RoutesOverBorrowedGraphMatchOwned) {
  // A full protocol instance built on the borrowed view must emit the
  // same routes as one built on the owned graph — the determinism
  // contract of api::RoutingScheme extended across the storage mode.
  const Graph g = ConnectedGeometric(256, 8.0, 21);
  const std::string path = testing::TempDir() + "/snap_v2_routes.bin";
  ASSERT_TRUE(SaveGraphSnapshot(g, path));
  const auto view = LoadGraphSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(view->borrowed());

  Params p;
  p.seed = 21;
  Disco owned(g, p);
  Disco borrowed(*view, p);
  for (NodeId s = 0; s < g.num_nodes(); s += 41) {
    for (NodeId t = 3; t < g.num_nodes(); t += 37) {
      if (s == t) continue;
      const Route a = owned.RouteFirst(s, t);
      const Route b = borrowed.RouteFirst(s, t);
      ASSERT_EQ(a.path, b.path) << s << "->" << t;
      ASSERT_EQ(a.length, b.length) << s << "->" << t;
      const Route al = owned.RouteLater(s, t);
      const Route bl = borrowed.RouteLater(s, t);
      ASSERT_EQ(al.path, bl.path) << s << "->" << t;
      ASSERT_EQ(al.length, bl.length) << s << "->" << t;
    }
  }
}

TEST(SnapshotV2, UnalignedViewFallsBackToOwnedDecode) {
  // ViewGraphSnapshot on a misaligned base cannot alias u64/double
  // sections; it must still load — via the copying path, whose result
  // must not reference the caller's buffer at all.
  const Graph g = ConnectedGnm(200, 600, 3);
  const std::string bytes = GraphSnapshotBytes(g);
  std::vector<char> buf(bytes.size() + 1);
  std::memcpy(buf.data() + 1, bytes.data(), bytes.size());
  const auto loaded = ViewGraphSnapshot(
      nullptr, Span<const char>(buf.data() + 1, bytes.size()));
  ASSERT_TRUE(loaded.has_value());
  // Clobber the source buffer: the graph must be backed by its own
  // aligned copy, so it stays intact.
  std::memset(buf.data(), 0, buf.size());
  ExpectSameGraph(g, *loaded);
}

TEST(SnapshotV2, CopiesOfBorrowedGraphsStayValid) {
  const Graph g = TestGraph();
  const std::string path = testing::TempDir() + "/snap_v2_copy.bin";
  ASSERT_TRUE(SaveGraphSnapshot(g, path));
  auto view = LoadGraphSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(view.has_value());
  // A copy of a borrowed graph shares the backing; it must outlive the
  // original view.
  Graph copy = *view;
  EXPECT_TRUE(copy.borrowed());
  view.reset();
  ExpectSameGraph(g, copy);
  // A moved-from-then-reassigned owned copy of the data is independent.
  Graph owned = Graph::FromEdges(copy.num_nodes(), [&] {
    std::vector<WeightedEdge> edges;
    for (EdgeId e = 0; e < copy.num_edges(); ++e) {
      edges.push_back(copy.edge(e));
    }
    return edges;
  }());
  EXPECT_FALSE(owned.borrowed());
  ExpectSameGraph(copy, owned);
}

TEST(SnapshotV2, FlippedSectionByteIsRejected) {
  const Graph g = ConnectedGnm(200, 600, 3);
  std::string bytes = GraphSnapshotBytes(g);
  // Past the 4096-byte header page sit the raw sections; flipping any
  // bit there must fail that section's SHA-256.
  ASSERT_GT(bytes.size(), 4096u + 100);
  bytes[4096 + 100] ^= 0x40;
  EXPECT_FALSE(LoadGraphSnapshotBytes(bytes).has_value());
}

TEST(SnapshotV2, FlippedHeaderByteIsRejected) {
  const Graph g = ConnectedGnm(200, 600, 3);
  std::string bytes = GraphSnapshotBytes(g);
  bytes[40] ^= 0x01;  // inside the section table
  EXPECT_FALSE(LoadGraphSnapshotBytes(bytes).has_value());
}

TEST(SnapshotV2, ViewRejectsHeaderAndStructuralCorruption) {
  // The zero-copy view path skips the per-section SHA-256 pass (a view
  // must not hash-fault the whole mapping in) but still runs the header
  // hash and the structural CSR scan; both must keep rejecting.
  const Graph g = ConnectedGnm(200, 600, 3);
  const std::string bytes = GraphSnapshotBytes(g);
  std::vector<char> buf(bytes.begin(), bytes.end());
  const Span<const char> span(buf.data(), buf.size());
  ASSERT_TRUE(ViewGraphSnapshot(nullptr, span).has_value());
  buf[40] ^= 0x01;  // inside the section table: header hash catches it
  EXPECT_FALSE(ViewGraphSnapshot(nullptr, span).has_value());
  buf[40] ^= 0x01;
  // offsets[12] gains bit 38: the monotonic-offsets scan catches it.
  buf[4096 + 100] ^= 0x40;
  EXPECT_FALSE(ViewGraphSnapshot(nullptr, span).has_value());
}

TEST(SnapshotV2, TruncationIsRejected) {
  const Graph g = ConnectedGnm(200, 600, 3);
  const std::string bytes = GraphSnapshotBytes(g);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{100},
        std::size_t{4096}, bytes.size() - 4096, bytes.size() - 1}) {
    EXPECT_FALSE(
        LoadGraphSnapshotBytes(bytes.substr(0, keep)).has_value())
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(SnapshotV2, ForeignEndianTagIsRejected) {
  const Graph g = ConnectedGnm(200, 600, 3);
  std::string bytes = GraphSnapshotBytes(g);
  // Reverse the 4-byte endian tag (what the same file written on an
  // opposite-endian machine would carry) and re-sign the header, so the
  // *endian* check — not the hash — is what rejects it.
  std::swap(bytes[8], bytes[11]);
  std::swap(bytes[9], bytes[10]);
  FixHeaderHash(&bytes);
  EXPECT_FALSE(LoadGraphSnapshotBytes(bytes).has_value());
}

std::uint64_t BitsOf(double w) {
  std::uint64_t bits;
  std::memcpy(&bits, &w, sizeof bits);
  return bits;
}

// Encodes the retired v1 container (magic, n, m, per-edge records,
// trailing whole-file SHA-256) exactly as the pre-v2 writer did.
std::string V1Bytes(NodeId n, const std::vector<WeightedEdge>& edges) {
  std::string out;
  out.append("DGSNv01\n", 8);
  PutU32Le(&out, n);
  PutU64Le(&out, edges.size());
  for (const WeightedEdge& e : edges) {
    PutU32Le(&out, e.a);
    PutU32Le(&out, e.b);
    PutU64Le(&out, BitsOf(e.weight));
  }
  const Sha256Digest d = Sha256Hash(out);
  out.append(reinterpret_cast<const char*>(d.data()), d.size());
  return out;
}

TEST(SnapshotV2, GarbageIsRejected) {
  EXPECT_FALSE(LoadGraphSnapshotBytes(std::string()).has_value());
  EXPECT_FALSE(LoadGraphSnapshotBytes(std::string("not a snapshot"))
                   .has_value());
  EXPECT_FALSE(
      LoadGraphSnapshotBytes(std::string(8192, '\0')).has_value());
  // A well-formed v1 snapshot is foreign bytes too: v1 decode is gone.
  const std::string v1 = V1Bytes(4, {{0, 1, 1.0}, {1, 2, 2.5}, {2, 3, 0.75}});
  EXPECT_FALSE(LoadGraphSnapshotBytes(v1).has_value());
  EXPECT_FALSE(ViewGraphSnapshot(nullptr, Span<const char>(v1.data(),
                                                           v1.size()))
                   .has_value());
}

}  // namespace
}  // namespace disco
