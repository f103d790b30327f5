// Graph I/O: text edge lists, binary snapshots, and fingerprints.
//
// Edge lists let real topology snapshots (e.g. the CAIDA maps the paper
// uses) be dropped into any experiment in place of the synthetic
// stand-ins. Format: one edge per line, "a b [weight]", ids are arbitrary
// non-negative integers (remapped densely), '#' starts a comment. Weight
// defaults to 1.
//
// Binary snapshots are the lossless, fast-loading form the artifact store
// (src/store/) uses: edge order and float weights survive bit-exactly, so
// a reloaded graph is indistinguishable from the generated original —
// same CSR, same EdgeIds, same fingerprint.
//
// Snapshot format v2 ("DGSNv02\n") is the packed CSR layout, written so a
// mapped file can back a Graph with zero copies (Graph::FromSections):
//
//   page 0 (4096 B): magic[8], endian tag[4] (the bytes of uint32
//     0x01020304 in the writer's native order — a reader whose order
//     differs rejects the file instead of silently mis-decoding),
//     n (u32 LE), m (u64 LE), total size (u64 LE), then 5 section entries
//     {offset u64 LE, length u64 LE, sha256[32]}, then the SHA-256 of the
//     header bytes before it; zero padding to the page boundary.
//   sections, each starting on a 4096-byte boundary, zero-padded:
//     offsets  u64[n+1]   CSR row starts
//     arc_to   u32[2m]    neighbor per arc
//     arc_edge u32[2m]    edge id per arc
//     ends     u32[2m]    (a, b) per edge, construction order
//     weights  f64[m]     one weight per edge
//
// Loading verifies the header and every section checksum, then validates
// the CSR invariants (monotone offsets, in-range node/edge ids, positive
// weights), so a borrowed Graph can trust the arrays outright. v2 is the
// only format: the older edge-list v1 ("DGSNv01\n") has no producer left
// and is rejected like any other foreign bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "graph/graph.h"
#include "obs/metrics.h"
#include "util/span.h"

namespace disco {

/// Loads an edge list; returns std::nullopt on open/parse failure.
std::optional<Graph> LoadEdgeList(const std::string& path);

/// Writes g as an edge list. Returns false on I/O failure.
bool SaveEdgeList(const Graph& g, const std::string& path);

/// SHA-256 (hex) over the graph's defining data: node count and the exact
/// edge list, weights as IEEE-754 bit patterns. Stable across processes
/// and thread counts; the artifact store keys every graph-derived object
/// by it, so a one-bit topology change can never alias a cached artifact.
/// (Unchanged by the v2 snapshot format: the fingerprint hashes the edge
/// list, not the container.)
std::string GraphFingerprintHex(const Graph& g);

/// Lossless binary snapshot of g in format v2. The bytes round-trip
/// through LoadGraphSnapshotBytes / ViewGraphSnapshot to an identical
/// graph (same CSR, same EdgeIds, same fingerprint).
std::string GraphSnapshotBytes(const Graph& g);

/// Rebuilds an owned graph from v2 snapshot bytes; std::nullopt
/// if the buffer is truncated, mislabeled, foreign-endian, or fails a
/// checksum. The bytes are copied — the caller's buffer may go away.
std::optional<Graph> LoadGraphSnapshotBytes(Span<const char> bytes);
std::optional<Graph> LoadGraphSnapshotBytes(const std::string& bytes);

/// Zero-copy load: validates `bytes` as a v2 snapshot and returns a
/// borrowed Graph whose arrays point straight into it, with `backing`
/// (e.g. an open store::ArtifactReader or an mmap) held alive for the
/// graph's lifetime. Validation on this path is the header hash (which
/// covers the section table) plus the structural CSR scan that bounds
/// every index — the per-section SHA-256 pass is skipped so a view does
/// not hash-fault the whole mapping in; use LoadGraphSnapshotBytes when
/// full cryptographic verification is wanted. Falls back to a copying
/// load when `bytes` is not 8-byte aligned; std::nullopt on any
/// validation failure.
std::optional<Graph> ViewGraphSnapshot(std::shared_ptr<const void> backing,
                                       Span<const char> bytes);

/// File convenience wrappers. SaveGraphSnapshot writes v2;
/// LoadGraphSnapshot memory-maps the file and hands the mapping to
/// ViewGraphSnapshot: a v2 file becomes a borrowed Graph (the page cache
/// shares the physical pages across every process mapping the same
/// file), a v1 file is decoded out of the mapping into owned storage.
/// std::nullopt when the file cannot be opened, is empty, cannot be
/// mapped, or fails validation.
bool SaveGraphSnapshot(const Graph& g, const std::string& path);
std::optional<Graph> LoadGraphSnapshot(const std::string& path);

/// Process-wide graph provenance counters, registered in the unified
/// metrics registry (the "[metrics] graph sources:" dump line): how many
/// graphs this process generated from scratch, loaded zero-copy from a
/// mapped snapshot, and rebuilt by decoding snapshot bytes. The bench
/// harness prints them to stderr at exit on --store= runs, which is how a
/// warm `disco_store build --graph=<fingerprint>` proves it did zero
/// generator work (the graph-tier analogue of the store smoke's
/// dijkstra=0 check).
struct GraphLoadStats {
  obs::Counter& generated;
  obs::Counter& mmap_loads;
  obs::Counter& decode_loads;
  GraphLoadStats();
};
GraphLoadStats& GraphLoadCounters();

}  // namespace disco
