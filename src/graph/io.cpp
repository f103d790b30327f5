#include "graph/io.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "util/bytes.h"
#include "util/sha256.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace disco {

GraphLoadStats::GraphLoadStats()
    : generated(obs::Global().RegisterCounter(
          "disco_graph_loads_total",
          "Graphs obtained by this process, by provenance.",
          "graph sources", "generated", {{"source", "generated"}})),
      mmap_loads(obs::Global().RegisterCounter(
          "disco_graph_loads_total",
          "Graphs obtained by this process, by provenance.",
          "graph sources", "mmap", {{"source", "mmap"}})),
      decode_loads(obs::Global().RegisterCounter(
          "disco_graph_loads_total",
          "Graphs obtained by this process, by provenance.",
          "graph sources", "decode", {{"source", "decode"}})) {}

GraphLoadStats& GraphLoadCounters() {
  static GraphLoadStats* stats = new GraphLoadStats();
  return *stats;
}

std::optional<Graph> LoadEdgeList(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;

  std::unordered_map<std::uint64_t, NodeId> remap;
  std::vector<WeightedEdge> edges;
  auto intern = [&remap](std::uint64_t raw) {
    auto [it, inserted] =
        remap.emplace(raw, static_cast<NodeId>(remap.size()));
    return it->second;
  };

  std::string line;
  while (std::getline(f, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::uint64_t a, b;
    if (!(ls >> a >> b)) continue;  // blank or comment-only line
    double w = 1.0;
    ls >> w;
    if (w <= 0) return std::nullopt;
    edges.push_back({intern(a), intern(b), w});
  }
  return Graph::FromEdges(static_cast<NodeId>(remap.size()), edges);
}

bool SaveEdgeList(const Graph& g, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "# " << g.num_nodes() << " nodes, " << g.num_edges() << " edges\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const WeightedEdge we = g.edge(e);
    f << we.a << ' ' << we.b << ' ' << we.weight << '\n';
  }
  return static_cast<bool>(f);
}

namespace {

constexpr char kSnapshotMagicV2[8] = {'D', 'G', 'S', 'N', 'v', '0', '2',
                                      '\n'};

// v2 layout constants (see the header comment in io.h). The header page
// holds: magic[8], endian tag[4], n u32, m u64, total u64, five 48-byte
// section entries, then the header SHA-256.
constexpr std::size_t kPage = 4096;
constexpr std::size_t kNumSections = 5;
constexpr std::size_t kSectionEntryBytes = 8 + 8 + 32;
constexpr std::size_t kSectionTableOff = 8 + 4 + 4 + 8 + 8;  // = 32
constexpr std::size_t kHeaderHashOff =
    kSectionTableOff + kNumSections * kSectionEntryBytes;  // = 272
static_assert(kHeaderHashOff + 32 <= kPage, "v2 header must fit one page");

std::size_t PageAlignUp(std::size_t x) {
  return (x + kPage - 1) / kPage * kPage;
}

// The writer's byte order, embedded verbatim so a reader on a
// different-endian machine rejects the file instead of mis-decoding the
// raw arrays.
struct EndianTag {
  char bytes[4];
};
EndianTag NativeEndianTag() {
  const std::uint32_t probe = 0x01020304u;
  EndianTag t;
  std::memcpy(t.bytes, &probe, sizeof t.bytes);
  return t;
}

// True when p can back the typed section pointers (u64/double need
// 8-byte alignment; the sections themselves sit at page multiples from
// the base).
bool Aligned8(const char* p) {
  // disco-lint: allow(pointer-order): alignment probe; the address is reduced mod 8, never ordered, hashed, or emitted
  return reinterpret_cast<std::uintptr_t>(p) % 8 == 0;
}

std::uint64_t WeightBits(Dist w) {
  std::uint64_t bits;
  static_assert(sizeof(Dist) == sizeof bits, "Dist must be a 64-bit float");
  std::memcpy(&bits, &w, sizeof bits);
  return bits;
}

// The defining data the fingerprint serializes: node count, edge count, then each edge as (a, b, weight bit
// pattern) in EdgeId order. Everything downstream (CSR, interface
// indices, EdgeIds) is a deterministic function of exactly this, which is
// why the fingerprint is unchanged by the v2 container format.
void AppendDefinition(std::string* out, const Graph& g) {
  PutU32Le(out, g.num_nodes());
  PutU64Le(out, g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const WeightedEdge we = g.edge(e);
    PutU32Le(out, we.a);
    PutU32Le(out, we.b);
    PutU64Le(out, WeightBits(we.weight));
  }
}

// --- v2 validation -----------------------------------------------------

struct V2Sections {
  NodeId n = 0;
  std::uint64_t m = 0;
  const std::uint64_t* offsets = nullptr;
  const NodeId* arc_to = nullptr;
  const EdgeId* arc_edge = nullptr;
  const NodeId* ends = nullptr;
  const double* weights = nullptr;
};

// Verification of a v2 buffer: header hash, optionally the per-section
// hashes, and the CSR invariants that make every later array access
// in-bounds. The returned pointers alias `bytes`, which must be 8-byte
// aligned. Zero-copy views pass verify_section_hashes=false: the header
// hash still covers the section table, the structural scan still bounds
// every index, but the load stays memory-bandwidth-limited instead of
// SHA-256-limited (the copying decode keeps the full cryptographic check).
std::optional<V2Sections> ValidateV2(Span<const char> bytes,
                                     bool verify_section_hashes) {
  if (bytes.size() < kPage) return std::nullopt;
  const char* base = bytes.data();
  if (std::memcmp(base, kSnapshotMagicV2, sizeof kSnapshotMagicV2) != 0) {
    return std::nullopt;
  }
  const EndianTag native = NativeEndianTag();
  if (std::memcmp(base + 8, native.bytes, sizeof native.bytes) != 0) {
    return std::nullopt;  // foreign byte order
  }
  const auto* p = reinterpret_cast<const std::uint8_t*>(base);
  V2Sections s;
  s.n = ReadU32Le(p + 12);
  s.m = ReadU64Le(p + 16);
  const std::uint64_t total = ReadU64Le(p + 24);
  if (total != bytes.size()) return std::nullopt;
  // EdgeId (and the packed build words) hold edge ids in 32 bits.
  if (s.m > 0xFFFFFFFFull) return std::nullopt;

  const Sha256Digest header_hash =
      Sha256Hash(std::string_view(base, kHeaderHashOff));
  if (std::memcmp(header_hash.data(), base + kHeaderHashOff, 32) != 0) {
    return std::nullopt;
  }

  const std::uint64_t arc_bytes = 8 * s.m;  // 2m entries x 4 bytes
  const std::uint64_t expected_len[kNumSections] = {
      8 * (static_cast<std::uint64_t>(s.n) + 1),  // offsets
      arc_bytes,                                  // arc_to
      arc_bytes,                                  // arc_edge
      arc_bytes,                                  // ends
      8 * s.m,                                    // weights
  };
  const char* section[kNumSections];
  for (std::size_t i = 0; i < kNumSections; ++i) {
    const std::uint8_t* entry =
        p + kSectionTableOff + i * kSectionEntryBytes;
    const std::uint64_t off = ReadU64Le(entry);
    const std::uint64_t len = ReadU64Le(entry + 8);
    if (len != expected_len[i]) return std::nullopt;
    if (off % kPage != 0 || off < kPage || off > total ||
        len > total - off) {
      return std::nullopt;
    }
    if (verify_section_hashes) {
      const Sha256Digest d = Sha256Hash(
          std::string_view(base + off, static_cast<std::size_t>(len)));
      if (std::memcmp(d.data(), entry + 16, 32) != 0) return std::nullopt;
    }
    section[i] = base + off;
  }

  s.offsets = reinterpret_cast<const std::uint64_t*>(section[0]);
  s.arc_to = reinterpret_cast<const NodeId*>(section[1]);
  s.arc_edge = reinterpret_cast<const EdgeId*>(section[2]);
  s.ends = reinterpret_cast<const NodeId*>(section[3]);
  s.weights = reinterpret_cast<const double*>(section[4]);

  if (s.offsets[0] != 0) return std::nullopt;
  for (NodeId v = 0; v < s.n; ++v) {
    if (s.offsets[v + 1] < s.offsets[v]) return std::nullopt;
  }
  if (s.offsets[s.n] != 2 * s.m) return std::nullopt;
  for (std::uint64_t i = 0; i < 2 * s.m; ++i) {
    if (s.arc_to[i] >= s.n || s.arc_edge[i] >= s.m || s.ends[i] >= s.n) {
      return std::nullopt;
    }
  }
  for (std::uint64_t e = 0; e < s.m; ++e) {
    if (!(s.weights[e] > 0)) return std::nullopt;
  }
  return s;
}

bool LooksLikeV2(Span<const char> bytes) {
  return bytes.size() >= sizeof kSnapshotMagicV2 &&
         std::memcmp(bytes.data(), kSnapshotMagicV2,
                     sizeof kSnapshotMagicV2) == 0;
}

// Zero-copy view over a validated v2 buffer. No counter bump — callers
// attribute the load to mmap or decode themselves.
std::optional<Graph> ViewV2(std::shared_ptr<const void> backing,
                            Span<const char> bytes,
                            bool verify_section_hashes) {
  const std::optional<V2Sections> s =
      ValidateV2(bytes, verify_section_hashes);
  if (!s) return std::nullopt;
  return Graph::FromSections(s->n, static_cast<std::size_t>(s->m),
                             s->offsets, s->arc_to, s->arc_edge, s->ends,
                             s->weights, std::move(backing));
}

}  // namespace

std::string GraphFingerprintHex(const Graph& g) {
  std::string def;
  def.reserve(12 + 16 * g.num_edges());
  AppendDefinition(&def, g);
  Sha256 h;
  h.Update("disco-graph-v1");
  h.Update(def);
  return Sha256HexOf(h.Finalize());
}

std::string GraphSnapshotBytes(const Graph& g) {
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t m = g.num_edges();
  struct Section {
    const void* data;
    std::size_t len;
  };
  const Section sections[kNumSections] = {
      {g.csr_offsets().data(), static_cast<std::size_t>(8 * (n + 1))},
      {g.csr_to().data(), static_cast<std::size_t>(8 * m)},
      {g.csr_edge().data(), static_cast<std::size_t>(8 * m)},
      {g.edge_ends().data(), static_cast<std::size_t>(8 * m)},
      {g.edge_weights().data(), static_cast<std::size_t>(8 * m)},
  };
  std::size_t offset[kNumSections];
  std::size_t total = kPage;
  for (std::size_t i = 0; i < kNumSections; ++i) {
    offset[i] = total;
    total = PageAlignUp(total + sections[i].len);
  }

  std::string out(total, '\0');
  for (std::size_t i = 0; i < kNumSections; ++i) {
    if (sections[i].data != nullptr && sections[i].len != 0) {
      std::memcpy(&out[offset[i]], sections[i].data, sections[i].len);
    }
  }

  std::string header;
  header.reserve(kHeaderHashOff);
  header.append(kSnapshotMagicV2, sizeof kSnapshotMagicV2);
  const EndianTag tag = NativeEndianTag();
  header.append(tag.bytes, sizeof tag.bytes);
  PutU32Le(&header, static_cast<std::uint32_t>(n));
  PutU64Le(&header, m);
  PutU64Le(&header, total);
  for (std::size_t i = 0; i < kNumSections; ++i) {
    PutU64Le(&header, offset[i]);
    PutU64Le(&header, sections[i].len);
    const Sha256Digest d = Sha256Hash(
        std::string_view(out.data() + offset[i], sections[i].len));
    header.append(reinterpret_cast<const char*>(d.data()), d.size());
  }
  out.replace(0, header.size(), header);
  const Sha256Digest hh =
      Sha256Hash(std::string_view(out.data(), kHeaderHashOff));
  std::memcpy(&out[kHeaderHashOff], hh.data(), hh.size());
  return out;
}

std::optional<Graph> LoadGraphSnapshotBytes(Span<const char> bytes) {
  if (LooksLikeV2(bytes)) {
    DISCO_TRACE_SPAN("graph.decode");
    // Copying load of a v2 buffer: one aligned copy of the bytes, then the
    // same zero-copy view over our own copy. (vector's heap block is
    // always 8-byte aligned; the caller's buffer may not be.)
    auto copy = std::make_shared<std::vector<char>>(
        bytes.begin(), bytes.begin() + bytes.size());
    const Span<const char> view(copy->data(), copy->size());
    std::optional<Graph> g =
        ViewV2(copy, view, /*verify_section_hashes=*/true);
    if (g) GraphLoadCounters().decode_loads.Inc();
    return g;
  }
  return std::nullopt;
}

std::optional<Graph> LoadGraphSnapshotBytes(const std::string& bytes) {
  return LoadGraphSnapshotBytes(Span<const char>(bytes.data(), bytes.size()));
}

std::optional<Graph> ViewGraphSnapshot(std::shared_ptr<const void> backing,
                                       Span<const char> bytes) {
  if (LooksLikeV2(bytes) && Aligned8(bytes.data())) {
    DISCO_TRACE_SPAN("graph.mmap");
    // Views skip the per-section SHA-256 pass: hashing every byte would
    // fault in the whole mapping at ~SHA speed, defeating the point of
    // an out-of-core view. The header hash and the structural scan still
    // run; use LoadGraphSnapshotBytes for full cryptographic checking.
    std::optional<Graph> g =
        ViewV2(std::move(backing), bytes, /*verify_section_hashes=*/false);
    if (g) GraphLoadCounters().mmap_loads.Inc();
    return g;
  }
  // A base the typed views cannot legally alias (or not a v2 snapshot at
  // all): decode from a private aligned copy instead; `backing` is not
  // needed past the copy.
  return LoadGraphSnapshotBytes(bytes);
}

bool SaveGraphSnapshot(const Graph& g, const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  const std::string bytes = GraphSnapshotBytes(g);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(f);
}

std::optional<Graph> LoadGraphSnapshot(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st;
  void* p = MAP_FAILED;
  std::size_t len = 0;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    len = static_cast<std::size_t>(st.st_size);
    p = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  ::close(fd);
  if (p == MAP_FAILED) return std::nullopt;
  std::shared_ptr<const void> backing(
      p, [len](const void* q) { ::munmap(const_cast<void*>(q), len); });
  return ViewGraphSnapshot(std::move(backing),
                           Span<const char>(static_cast<const char*>(p), len));
}

}  // namespace disco
