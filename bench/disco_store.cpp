// disco_store — build and manage the on-disk artifact store (src/store/).
//
//   disco_store build  --store=<dir> [--topo=<family>]
//                      [--graph=<g>] [--n=..] [--seed=..]
//                      [--quick|--full] [--threads=k]
//   disco_store ls     --store=<dir>
//   disco_store verify --store=<dir>
//   disco_store gc     --store=<dir> [--max-bytes=<n>]
//
// `build` constructs the same topology a bench would (identical
// generator, identical size/seed policy, including the --quick/--full
// scaling), selects the same landmark set, and publishes every landmark
// tree as a compressed artifact — the one-time cost that lets every
// later bench or sweep cell run with `--store=<dir>` and do zero landmark
// Dijkstras. Keys are shared with LandmarkTreeCache by construction
// (LandmarkTreeArtifactKey), so a bench on the same (topology, n, seed,
// params) resolves exactly the objects built here. Re-running build over
// a populated store is an incremental no-op: present trees are loaded
// (which verifies them) instead of recomputed.
//
// `--graph=` bypasses the generators and prebuilds for a real map: a
// binary snapshot (graph/io.h SaveGraphSnapshot), a text edge list, or —
// when given a 64-hex graph fingerprint — the snapshot artifact a
// previous build stored, so trees can be rebuilt (say, after a codec
// version bump, or post-gc) without the original map file or generator
// replay (bench_common's LoadGraphOrDie, the resolver every --graph=
// shares).
//
// GC policy: `gc` always removes abandoned temp files (older than an
// hour; younger ones may be a live writer's in-flight Put) and corrupt
// objects; with --max-bytes it additionally evicts oldest-published
// objects until the store fits the budget (content-addressing makes
// eviction safe — an evicted tree is rebuilt and republished by the next
// run that needs it).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "bench_common.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "routing/landmark_trees.h"
#include "routing/landmarks.h"
#include "runtime/parallel_for.h"
#include "store/artifact_store.h"
#include "store/tree_codec.h"

namespace disco::bench {
namespace {

constexpr const char* kUsage =
    "usage: disco_store <build|ls|verify|gc> --store=<dir> [flags]\n"
    "  build   prebuild landmark-tree artifacts for one topology\n"
    "  ls      list artifacts (id, bytes, kind, key)\n"
    "  verify  checksum-verify every artifact (exit 1 on corruption)\n"
    "  gc      drop temp files + corrupt objects; --max-bytes evicts\n"
    "          oldest objects down to the byte budget\n";

std::string ExtraUsage() {
  return "  --topo=<t>       topology family for build (" +
         JoinNames(TopologyFamilies()) +
         ";\n"
         "                   default gnm) — same size/seed policy as the "
         "benches\n"
         "  --graph=<g>      build for a graph snapshot file, an edge-list\n"
         "                   file, or a 64-hex graph fingerprint already\n"
         "                   stored, instead of a generated topology\n"
         "  --max-bytes=<n>  gc: evict oldest objects past this total size\n";
}

struct StoreArgs {
  std::string topo = "gnm";
  std::string graph;
  std::uint64_t max_bytes = 0;
};

int Build(const StoreArgs& sargs, const Args& args) {
  store::ArtifactStore* const st = store::ProcessStore();
  const Graph g = sargs.graph.empty() ? MakeBenchTopology(sargs.topo, args)
                                      : LoadGraphOrDie(sargs.graph);
  const Params params = args.MakeParams();
  const LandmarkSet landmarks = SelectLandmarks(g.num_nodes(), params);
  std::printf("disco_store build: n=%u m=%zu landmarks=%zu store=%s\n",
              g.num_nodes(), g.num_edges(), landmarks.count(),
              st->root().c_str());

  // Stash the graph itself: `build --graph=<this fingerprint>` can then
  // rebuild trees for the exact map — after a codec version bump or a
  // gc eviction — without the original file or generator replay.
  const std::string graph_fp = GraphFingerprintHex(g);
  std::printf("graph fingerprint: %s\n", graph_fp.c_str());
  std::string err;
  if (!st->Put(GraphSnapshotKey(graph_fp), {GraphSnapshotBytes(g)},
               &err)) {
    std::fprintf(stderr, "cannot store graph snapshot: %s\n", err.c_str());
    return 1;
  }

  // The tier counts are deltas of the process-wide registry series.
  store::StoreCounters& tiers = store::Counters();
  const std::uint64_t dijkstras0 = tiers.tree_dijkstras.Value();
  const std::uint64_t store_hits0 = tiers.tree_store_hits.Value();
  const std::uint64_t writebacks0 = tiers.tree_writebacks.Value();

  // Resolving every tree through a tiny cache exercises exactly the
  // production load path: present artifacts are decoded (verifying them),
  // absent ones are computed and written back. Capacity 1 keeps the
  // resident set bounded, so a 192k-node full-scale build streams trees
  // to disk instead of holding all of them.
  LandmarkTreeCache cache(g, landmarks, 1);
  runtime::ParallelForTasks(landmarks.count(), [&](std::size_t i) {
    cache.Tree(landmarks.landmarks[i]);
  });
  const std::uint64_t built = tiers.tree_dijkstras.Value() - dijkstras0;
  const std::uint64_t present = tiers.tree_store_hits.Value() - store_hits0;
  const std::uint64_t writebacks =
      tiers.tree_writebacks.Value() - writebacks0;

  std::uint64_t tree_bytes = 0, total_bytes = 0;
  for (const store::ListEntry& e : st->List()) {
    total_bytes += e.bytes;
    if (e.kind == "ltree") tree_bytes += e.bytes;
  }
  std::printf("built=%" PRIu64 " present=%" PRIu64 " tree_bytes=%" PRIu64
              " store_bytes=%" PRIu64 "\n",
              built, present, tree_bytes, total_bytes);
  const std::size_t raw =
      landmarks.count() * static_cast<std::size_t>(g.num_nodes()) *
      (sizeof(Dist) + sizeof(NodeId));
  if (writebacks > 0 && raw > 0) {
    std::printf("encoded size: %.1f%% of the in-memory tree footprint\n",
                100.0 * static_cast<double>(tree_bytes) /
                    static_cast<double>(raw));
  }
  return 0;
}

int Ls() {
  std::uint64_t total = 0;
  const auto entries = store::ProcessStore()->List();
  for (const store::ListEntry& e : entries) {
    total += e.bytes;
    std::printf("%.12s  %10" PRIu64 "  %-6s %s\n", e.id.c_str(), e.bytes,
                e.kind.empty() ? "?" : e.kind.c_str(),
                e.canonical.c_str());
  }
  std::printf("%zu artifacts, %" PRIu64 " bytes\n", entries.size(), total);
  return 0;
}

int Verify() {
  const auto result = store::ProcessStore()->Verify();
  for (const std::string& id : result.corrupt) {
    std::fprintf(stderr, "corrupt artifact: %s\n", id.c_str());
  }
  std::printf("verified %zu artifacts, %zu corrupt\n", result.checked,
              result.corrupt.size());
  return result.corrupt.empty() ? 0 : 1;
}

int Gc(const StoreArgs& sargs) {
  const auto result = store::ProcessStore()->Gc(sargs.max_bytes);
  std::printf("gc: removed %zu tmp files, %zu corrupt objects, evicted "
              "%zu; %" PRIu64 " bytes kept\n",
              result.removed_tmp, result.removed_corrupt, result.evicted,
              result.bytes_kept);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (cmd != "build" && cmd != "ls" && cmd != "verify" && cmd != "gc") {
    std::fprintf(stderr, "unknown subcommand \"%s\"\n%s", cmd.c_str(),
                 kUsage);
    return 2;
  }

  // Shift the subcommand out so the shared parser sees plain flags.
  std::vector<char*> shifted;
  shifted.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) shifted.push_back(argv[i]);

  StoreArgs sargs;
  static const std::string extra_usage = ExtraUsage();
  const Args args = Args::Parse(
      static_cast<int>(shifted.size()), shifted.data(), extra_usage.c_str(),
      [&sargs](const std::string& arg) {
        const auto value_of = [&arg](const char* prefix) -> const char* {
          const std::size_t len = std::strlen(prefix);
          return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len
                                                  : nullptr;
        };
        if (const char* v = value_of("--topo=")) {
          const auto& known = TopologyFamilies();
          if (std::find(known.begin(), known.end(), v) == known.end()) {
            std::fprintf(stderr, "unknown --topo \"%s\" (known: %s)\n", v,
                         JoinNames(known).c_str());
            std::exit(2);
          }
          sargs.topo = v;
          return true;
        }
        if (const char* v = value_of("--graph=")) {
          sargs.graph = v;
          return true;
        }
        if (const char* v = value_of("--max-bytes=")) {
          if (!ParseInt(v, &sargs.max_bytes)) {
            std::fprintf(stderr, "--max-bytes needs an integer\n");
            std::exit(2);
          }
          return true;
        }
        return false;
      });
  if (args.store.empty()) {
    std::fprintf(stderr, "disco_store %s needs --store=<dir>\n%s",
                 cmd.c_str(), kUsage);
    return 2;
  }

  if (cmd == "build") return Build(sargs, args);
  if (cmd == "ls") return Ls();
  if (cmd == "verify") return Verify();
  return Gc(sargs);
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
