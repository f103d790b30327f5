// disco_graphbench — the graph-substrate perf trajectory.
//
// Where disco_serve tracks route-serving throughput, this bench tracks
// the layer underneath every experiment: generator throughput (edges/s
// for all four synthetic families), snapshot codec throughput (v2 encode
// and decode MB/s), and the out-of-core story — how long a cold generate
// takes vs mmap-loading the published snapshot of the same graph — plus
// peak RSS, because at graph scale memory is the capacity wall.
//
// Results go to stdout. Three self-checks guard the zero-copy path end to
// end — the mmap view must reproduce the generated graph's fingerprint
// and bit-identical Dijkstra distances, and mmap-loading must beat
// regenerating by at least 2x — and graph_smoke greps for their OK lines.
// Any FAIL exits non-zero.
//
//   disco_graphbench [--n=..] [--seed=..] [--quick|--full]
//                    [--threads=k] [--out=dir]
//
// Default n=100,000 (the graph_smoke scale); --full runs the million-node
// point, --quick a 20k smoke.
#include "bench_common.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "graph/generators.h"
#include "graph/io.h"
#include "graph/shortest_path.h"
#include "runtime/rng_stream.h"

namespace disco::bench {
namespace {

// Loading a snapshot slower than regenerating the graph would defeat the
// format's purpose on any machine, so this floor is absolute.
constexpr double kMinMmapSpeedup = 2.0;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  const NodeId n =
      args.NOr(args.full ? 1000000 : (args.quick ? 20000 : 100000));
  Banner("Graph substrate — generator, snapshot codec, and mmap-load "
         "throughput",
         "streaming CSR generators scale linearly; a v2 snapshot "
         "mmap-loads far faster than regenerating; the borrowed view is "
         "indistinguishable from the built graph");

  // Generator throughput of every family. The geometric graph is kept:
  // its float weights exercise every snapshot section, so it drives the
  // codec phases too.
  std::printf("[generators] n=%u seed=%" PRIu64 "\n", n, args.seed);
  Graph geo;
  double gen_s = 0;
  for (const std::string& family : TopologyFamilies()) {
    const auto start = std::chrono::steady_clock::now();
    Graph g = MakeTopology(family, n, args.seed);
    const double seconds = SecondsSince(start);
    std::printf("  %-8s %9zu edges  %8.3f s  %12.0f edges/s\n",
                family.c_str(), g.num_edges(), seconds,
                seconds > 0 ? static_cast<double>(g.num_edges()) / seconds
                            : 0);
    if (family == "geo") {
      gen_s = seconds;
      geo = std::move(g);
    }
  }

  // Snapshot codec: encode (graph -> v2 bytes), decode (bytes -> owned
  // graph), and the zero-copy file path (save once, mmap-load).
  auto t0 = std::chrono::steady_clock::now();
  const std::string bytes = GraphSnapshotBytes(geo);
  const double encode_s = SecondsSince(t0);
  const double mb = static_cast<double>(bytes.size()) / 1e6;

  t0 = std::chrono::steady_clock::now();
  const auto decoded = LoadGraphSnapshotBytes(
      Span<const char>(bytes.data(), bytes.size()));
  const double decode_s = SecondsSince(t0);
  if (!decoded) {
    std::fprintf(stderr, "snapshot decode failed\n");
    return 1;
  }

  const std::string snap_path = args.OutPath("graphbench.snap");
  t0 = std::chrono::steady_clock::now();
  if (!SaveGraphSnapshot(geo, snap_path)) {
    std::fprintf(stderr, "cannot write %s\n", snap_path.c_str());
    return 1;
  }
  const double save_s = SecondsSince(t0);

  t0 = std::chrono::steady_clock::now();
  const auto view = LoadGraphSnapshot(snap_path);
  const double mmap_load_s = SecondsSince(t0);
  if (!view || !view->borrowed()) {
    std::fprintf(stderr, "mmap load of %s failed\n", snap_path.c_str());
    std::remove(snap_path.c_str());
    return 1;
  }

  const double mmap_speedup =
      mmap_load_s > 0 ? gen_s / mmap_load_s : 0;
  std::printf("[snapshot] %.1f MB  encode %.1f MB/s  decode %.1f MB/s  "
              "save %.3f s\n",
              mb, encode_s > 0 ? mb / encode_s : 0,
              decode_s > 0 ? mb / decode_s : 0, save_s);
  std::printf("[out-of-core] generate %.3f s  mmap load %.3f s  "
              "speedup %.1fx\n",
              gen_s, mmap_load_s, mmap_speedup);

  // Self-check 1: the borrowed view is the same graph, bit for bit.
  const bool fp_ok =
      GraphFingerprintHex(*view) == GraphFingerprintHex(geo) &&
      GraphFingerprintHex(*decoded) == GraphFingerprintHex(geo);
  std::printf("self-check fingerprint: %s\n", fp_ok ? "OK" : "FAIL");

  // Self-check 2: routing over the view is indistinguishable — Dijkstra
  // distance arrays from spot sources must be bit-identical.
  bool routes_ok = true;
  for (std::size_t i = 0; i < 4; ++i) {
    const NodeId src = static_cast<NodeId>(
        runtime::TaskRng(args.seed, i).NextBelow(geo.num_nodes()));
    const ShortestPathTree a = Dijkstra(geo, src);
    const ShortestPathTree b = Dijkstra(*view, src);
    if (a.dist.size() != b.dist.size() ||
        std::memcmp(a.dist.data(), b.dist.data(),
                    a.dist.size() * sizeof(Dist)) != 0 ||
        a.parent != b.parent) {
      routes_ok = false;
    }
  }
  std::printf("self-check spot-routes: %s\n", routes_ok ? "OK" : "FAIL");

  // Self-check 3: the out-of-core path pays off.
  const bool speedup_ok = mmap_speedup >= kMinMmapSpeedup;
  std::printf("self-check mmap-speedup: %s\n", speedup_ok ? "OK" : "FAIL");
  std::printf("peak rss: %" PRIu64 " KB\n", PeakRssKb());
  std::remove(snap_path.c_str());

  return fp_ok && routes_ok && speedup_ok ? 0 : 1;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
