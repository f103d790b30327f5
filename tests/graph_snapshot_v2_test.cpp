// The v2 snapshot contract end to end: every Graph is a view over a
// shared immutable backing (builder arrays, a decoded copy or an mmap), and
// a decoded or mapped graph must be observably identical to the generated
// graph it was encoded from — same CSR sections, same fingerprint, same
// Dijkstra trees bit for bit, same protocol routes. Copies share the
// backing instead of copying arrays. Every way a v2 buffer can be wrong
// (flipped section byte, flipped header byte, truncation, foreign byte
// order, garbage, a retired v1 snapshot) must be rejected, never
// mis-decoded.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
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

// The [begin, end) bytes of one packed section.
using ByteRange = std::pair<const char*, const char*>;

template <typename T>
ByteRange BytesOf(Span<const T> s) {
  const char* begin = reinterpret_cast<const char*>(s.data());
  return {begin, begin + s.size() * sizeof(T)};
}

// Pointers into different objects compare through std::less, whose order
// is total.
bool Before(const char* a, const char* b) { return std::less<>()(a, b); }

// The graph's five CSR sections, in on-disk order.
std::vector<ByteRange> Sections(const Graph& g) {
  return {BytesOf(g.csr_offsets()), BytesOf(g.csr_to()),
          BytesOf(g.csr_edge()), BytesOf(g.edge_ends()),
          BytesOf(g.edge_weights())};
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(GraphFingerprintHex(a), GraphFingerprintHex(b));
  const std::vector<ByteRange> sa = Sections(a);
  const std::vector<ByteRange> sb = Sections(b);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    const auto len = static_cast<std::size_t>(sa[i].second - sa[i].first);
    ASSERT_EQ(len, static_cast<std::size_t>(sb[i].second - sb[i].first))
        << "section " << i;
    if (len != 0) {
      ASSERT_EQ(std::memcmp(sa[i].first, sb[i].first, len), 0)
          << "section " << i;
    }
  }
}

// Whether `r` lies inside one mapping of a file named `file_name`, per
// /proc/self/maps (which lists the canonical path, so match the name).
bool InsideMappingOf(const std::string& file_name, ByteRange r) {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    if (line.find("/" + file_name) == std::string::npos) continue;
    std::istringstream in(line);
    std::uintptr_t lo = 0, hi = 0;
    char dash = 0;
    in >> std::hex >> lo >> dash >> hi;
    if (!Before(r.first, reinterpret_cast<const char*>(lo)) &&
        !Before(reinterpret_cast<const char*>(hi), r.second)) {
      return true;
    }
  }
  return false;
}

// Whether any section of g overlaps the buffer [lo, hi).
bool AliasesBuffer(const Graph& g, const char* lo, const char* hi) {
  for (const ByteRange& r : Sections(g)) {
    if (r.first != r.second && Before(r.first, hi) && Before(lo, r.second)) {
      return true;
    }
  }
  return false;
}

TEST(SnapshotV2, OwnedDecodeMatchesOriginal) {
  const Graph g = TestGraph();
  const std::string bytes = GraphSnapshotBytes(g);
  const std::uint64_t before = GraphLoadCounters().decode_loads.Value();
  const auto loaded = LoadGraphSnapshotBytes(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(GraphLoadCounters().decode_loads.Value(), before + 1);
  ExpectSameGraph(g, *loaded);
}

TEST(SnapshotV2, BorrowedFileViewMatchesOriginal) {
  const Graph g = TestGraph();
  const std::string name = "snap_v2_view.bin";
  const std::string path = testing::TempDir() + "/" + name;
  ASSERT_TRUE(SaveGraphSnapshot(g, path));
  const std::uint64_t before = GraphLoadCounters().mmap_loads.Value();
  const auto view = LoadGraphSnapshot(path);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(GraphLoadCounters().mmap_loads.Value(), before + 1);
  // Zero copy: every section lies inside the mapped file's bytes.
  for (const ByteRange& r : Sections(*view)) {
    if (r.first != r.second) {
      EXPECT_TRUE(InsideMappingOf(name, r));
    }
  }
  std::remove(path.c_str());
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
  const std::uint64_t before = GraphLoadCounters().mmap_loads.Value();
  const auto view = LoadGraphSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(GraphLoadCounters().mmap_loads.Value(), before + 1);

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
  const std::uint64_t mmaps = GraphLoadCounters().mmap_loads.Value();
  const std::uint64_t decodes = GraphLoadCounters().decode_loads.Value();
  const auto loaded = ViewGraphSnapshot(
      nullptr, Span<const char>(buf.data() + 1, bytes.size()));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(GraphLoadCounters().mmap_loads.Value(), mmaps);
  EXPECT_EQ(GraphLoadCounters().decode_loads.Value(), decodes + 1);
  EXPECT_FALSE(AliasesBuffer(*loaded, buf.data(), buf.data() + buf.size()));
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
  // A copy of a mapped graph shares the mapping; it must outlive the
  // original view.
  Graph copy = *view;
  EXPECT_EQ(copy.csr_to().data(), view->csr_to().data());
  view.reset();
  ExpectSameGraph(g, copy);
  // Rebuilding from the edge list reproduces the same sections.
  Graph rebuilt = Graph::FromEdges(copy.num_nodes(), [&] {
    std::vector<WeightedEdge> edges;
    for (EdgeId e = 0; e < copy.num_edges(); ++e) {
      edges.push_back(copy.edge(e));
    }
    return edges;
  }());
  ExpectSameGraph(copy, rebuilt);
}

TEST(SnapshotV2, CopiesOfGeneratedGraphsShareSections) {
  // A generated graph views its builder's arrays through the same kind of
  // shared backing as a mapped one: copies alias the sections and keep
  // them alive after the original is gone.
  auto original = std::make_unique<Graph>(TestGraph());
  const std::vector<ByteRange> sections = Sections(*original);
  const Graph copy = *original;
  Graph assigned;
  assigned = *original;
  EXPECT_TRUE(Sections(copy) == sections);
  EXPECT_TRUE(Sections(assigned) == sections);
  original.reset();
  const Graph fresh = TestGraph();
  ExpectSameGraph(fresh, copy);
  ExpectSameGraph(fresh, assigned);
  const ShortestPathTree ta = Dijkstra(fresh, 5);
  const ShortestPathTree tb = Dijkstra(copy, 5);
  ASSERT_EQ(ta.dist, tb.dist);
  ASSERT_EQ(ta.parent, tb.parent);
}

TEST(SnapshotV2, GeneratedDecodedAndMappedAgree) {
  // The three ways to obtain a graph yield the same CSR arrays and the
  // same fingerprint, for every topology family.
  for (const std::string& family : TopologyFamilies()) {
    SCOPED_TRACE(family);
    const Graph generated = MakeTopology(family, 300, 11);
    const auto decoded = LoadGraphSnapshotBytes(GraphSnapshotBytes(generated));
    ASSERT_TRUE(decoded.has_value());
    const std::string path = testing::TempDir() + "/snap_v2_agree.bin";
    ASSERT_TRUE(SaveGraphSnapshot(generated, path));
    const auto mapped = LoadGraphSnapshot(path);
    std::remove(path.c_str());
    ASSERT_TRUE(mapped.has_value());
    ExpectSameGraph(generated, *decoded);
    ExpectSameGraph(generated, *mapped);
  }
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
