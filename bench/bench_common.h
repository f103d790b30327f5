// Shared harness for the per-figure benchmark binaries.
//
// Every binary regenerates one table or figure from §5 of "Scalable Routing
// on Flat Names" (CoNEXT 2010): it prints the paper's series as aligned
// text tables, writes the full data as TSV files next to the working
// directory, and states the paper's qualitative expectation so the output
// is self-interpreting. Protocols are selected by name through the
// RoutingScheme registry (src/api/), so every bench accepts the same
// --schemes=disco,s4,... flag. Multi-task fan-outs (disco_sweep's cells,
// fig04/fig05's per-scheme comparison blocks, fig09's per-size trials)
// run through the exec::Executor layer selected by --backend=threads|procs
// and --workers=<k>, with output byte-identical across backends; the
// flags are part of the common harness, but a bench whose work is one
// sequential experiment has no fan-out for the procs backend to
// distribute and runs in-process regardless. Common flags (unknown flags
// fail with a usage message):
//   --n=<int>        override the default topology size
//   --seed=<int>     change the experiment seed (default 1)
//   --samples=<int>  override the number of sampled pairs/nodes
//   --schemes=<a,b>  comma-separated scheme names (see api/registry.h)
//   --out=<dir>      directory for TSV output (default: working directory)
//   --threads=<k>    thread-pool width (default: DISCO_THREADS env, else
//                    hardware concurrency)
//   --backend=<b>    execution backend: threads (in-process, default)
//                    or procs (worker subprocesses; see src/exec/)
//   --workers=<k>    subprocess count for --backend=procs
//   --store=<dir>    artifact store with prebuilt landmark trees
//                    (src/store/; prebuild with disco_store). Wall-clock
//                    only: output stays byte-identical to a storeless
//                    run; tier counters go to stderr at exit.
//   --trace=<file>   record a Chrome trace_event timeline of the run
//                    (src/obs/trace.h; open in Perfetto). Determinism-
//                    neutral: stdout and TSVs are byte-identical with
//                    tracing on or off. Procs workers ship their spans
//                    home in their goodbye frame; the driver merges them
//                    into the one file.
//   --full           run at the paper's full scale (larger and slower)
//   --quick          shrink everything (used by CI smoke runs)
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/routing_scheme.h"
#include "exec/executor.h"
#include "graph/graph.h"
#include "runtime/parallel_for.h"
#include "sim/scenario.h"
#include "store/artifact_store.h"
#include "util/parse_int.h"
#include "util/stats.h"

namespace disco::bench {

struct Args {
  NodeId n = 0;            // 0 = per-bench default
  std::uint64_t seed = 1;
  std::size_t samples = 0; // 0 = per-bench default
  bool full = false;
  bool quick = false;
  /// Sloppy-group "+O(1)" bits (Params::group_bits_offset); the paper's
  /// tuned constant behaves like +2 (smaller groups, less Disco state).
  int gbits = 0;
  /// Explicit thread-pool width; 0 falls back to DISCO_THREADS / hardware.
  int threads = 0;
  /// Directory TSV output goes to (created if missing); "" = cwd.
  std::string out;
  /// Scheme names from --schemes=, validated against the registry; empty
  /// means the per-bench default set.
  std::vector<std::string> schemes;
  /// Execution backend for the bench's big fan-outs (--backend=).
  exec::Backend backend = exec::Backend::kThreads;
  /// Worker subprocess count for the procs backend (--workers=, 0 = auto).
  std::size_t workers = 0;
  /// Artifact store directory (--store=); "" = no store. Parse opens it
  /// as the process store, so every LandmarkTreeCache built afterwards —
  /// including in procs-backend workers, which re-parse this argv — loads
  /// prebuilt trees instead of recomputing them.
  std::string store;
  /// Trace output path (--trace=); "" = tracing off. Parse enables the
  /// span tracer; workers (which re-parse this argv) ship their spans to
  /// the driver, which writes the one merged file at exit.
  std::string trace;
  /// This process's argv, verbatim — the procs backend re-invokes it (plus
  /// --worker=<job>) to create workers.
  std::vector<std::string> raw_argv;

  /// Hook for bench-specific flags: returns true if it consumed `arg`.
  using ExtraFlag = std::function<bool(const std::string& arg)>;

  /// Parses the common flags. Unrecognized flags (and unregistered scheme
  /// names) terminate with a usage message listing every valid flag;
  /// `extra` is offered flags the common set rejects, and `extra_usage`
  /// (one "  --flag=...  description" line per entry) is appended to the
  /// usage text.
  static Args Parse(int argc, char** argv, const char* extra_usage = nullptr,
                    const ExtraFlag& extra = nullptr);

  Params MakeParams() const {
    Params p;
    p.seed = seed;
    p.group_bits_offset = gbits;
    return p;
  }

  /// Executor configuration for this run; `pool` bounds task-level
  /// concurrency on the thread backend (see exec::ExecOptions::pool).
  exec::ExecOptions MakeExecOptions(runtime::ThreadPool* pool = nullptr)
      const;

  NodeId NOr(NodeId def) const { return n != 0 ? n : def; }
  std::size_t SamplesOr(std::size_t def) const {
    return samples != 0 ? samples : def;
  }
  std::vector<std::string> SchemesOr(std::vector<std::string> def) const {
    return schemes.empty() ? std::move(def) : schemes;
  }

  /// Prefixes `name` with the --out directory (if any).
  std::string OutPath(const std::string& name) const;
};

/// Campaign flags shared by the dynamics benches (fig08_convergence,
/// static_vs_des) and disco_sweep, plugged into Args::Parse through the
/// strict extra-flag hook:
///   --replicas=<r>      independent seeded DES replicas (default 1)
///   --scenario=<kind>   one of ScenarioKinds() (sim/scenario.h)
///   --scn-events=<k>    disturbance events per scenario
///   --scn-fraction=<f>  fraction of nodes/links disturbed per event
///   --scn-start=<t>     simulated time of the first disturbance
///   --scn-spacing=<t>   disturbance -> recovery spacing
///   --scn-noheal        leave the final disturbance unhealed
struct CampaignArgs {
  std::size_t replicas = 1;
  ScenarioSpec scenario;

  /// Extra-flag hook body: returns true if `arg` was consumed. Malformed
  /// values and unknown scenario kinds exit with a message (same policy
  /// as the common flags).
  bool Consume(const std::string& arg);

  /// The usage lines for Args::Parse's `extra_usage`.
  static const std::string& Usage();

  /// True when the run differs from a plain single-replica static bench
  /// (extra output such as campaign TSVs keys off this, so default runs
  /// stay byte-identical to the pre-campaign harness).
  bool active() const { return replicas > 1 || scenario.kind != "null"; }
};

/// Prints a banner naming the figure and the paper's expectation.
void Banner(const std::string& figure, const std::string& expectation);

/// This process's peak resident set size in KiB (Linux /proc VmHWM);
/// 0 where unavailable. The graph-scale benches report it — at a million
/// nodes memory, not time, is the capacity wall.
std::uint64_t PeakRssKb();

/// WriteFile, but a failed write (including a flush/close failure such as
/// ENOSPC) warns on stderr naming the path instead of being dropped.
void WriteFileOrWarn(const std::string& path, const std::string& contents);

/// One CDF rendered as a fixed set of quantiles (the line PrintCdf prints,
/// with trailing newline) — task code builds output text with this so the
/// executor's parent process can print it verbatim.
std::string CdfLine(const std::string& label, std::vector<double> values);

/// The "label: count=… mean=… p50=… p95=… max=…" line (with trailing
/// newline) PrintSummary prints.
std::string SummaryLine(const std::string& label,
                        std::vector<double> values);

/// The TSV content PrintCdf writes for a curve.
std::string CdfTsvContent(std::vector<double> values);

/// Prints one CDF as a fixed set of quantiles (two aligned columns), and
/// appends the full curve to `<file>.tsv` when `file` is non-empty.
void PrintCdf(const std::string& label, std::vector<double> values,
              const std::string& file = "");

/// Prints "label: count=… mean=… p50=… p95=… max=…" on one line.
void PrintSummary(const std::string& label, std::vector<double> values);

/// A labeled numeric table printed with aligned columns; rows[i].second
/// must have one entry per column.
void PrintTable(const std::string& title,
                const std::vector<std::string>& columns,
                const std::vector<std::pair<std::string,
                                            std::vector<double>>>& rows);

/// `family` (one of TopologyFamilies(), graph/generators.h) at the size
/// the benches use: --n= when given; else 4096 (as, router) or 2048 (gnm,
/// geo) under --quick; else the paper's counts for the Internet maps (as
/// 30,610; router 32,768, or the published 192,244 under --full) and
/// `def_n` for gnm and geo. An unknown family yields an empty graph.
Graph MakeBenchTopology(const std::string& family, const Args& args,
                        NodeId def_n = 1024);

/// The paper's topologies (synthetic stand-ins for the CAIDA maps, which
/// are not redistributable; see graph/generators.h) under that size policy.
inline Graph MakeAsLevel(const Args& a) { return MakeBenchTopology("as", a); }
inline Graph MakeRouterLevel(const Args& a) {
  return MakeBenchTopology("router", a);
}
inline Graph MakeGeometric(const Args& a, NodeId def_n) {
  return MakeBenchTopology("geo", a, def_n);  // latency-annotated
}
inline Graph MakeGnm(const Args& a, NodeId def_n) {
  return MakeBenchTopology("gnm", a, def_n);  // avg degree 8
}

/// Resolves a --graph= value. A 64-hex graph fingerprint names a snapshot
/// artifact in the process store (--store=, published by disco_store
/// build) and comes back as a zero-copy view over the store's mmap, whose
/// pages every process mapping the object shares; anything else is read
/// as a graph snapshot file, then as a text edge list. Exits 2 with a
/// message when nothing resolves.
Graph LoadGraphOrDie(const std::string& spec);

/// Artifact-store key for a graph snapshot (key version 2: the packed CSR
/// snapshot format).
store::ArtifactKey GraphSnapshotKey(const std::string& graph_fp);

/// "a,b,c" — the comma-joined list usage and error messages print.
std::string JoinNames(const std::vector<std::string>& names);

/// Runs `count` tasks through the executor selected by --backend/--workers
/// and returns the raw result strings in task order. On execution failure
/// (a task out of retries, the worker pool lost) prints the error — via
/// `label` when given, so the message names the failing cell, not just an
/// index — and exits non-zero. `pool` bounds task-level concurrency on the
/// thread backend.
std::vector<std::string> RunTasksOrDie(
    const Args& args, std::size_t count, const exec::TaskFn& fn,
    runtime::ThreadPool* pool = nullptr,
    const std::function<std::string(std::size_t)>& label = nullptr);

/// Multi-trial dispatch through the executor: runs trials 0..count-1 on
/// the selected backend and returns their results in trial order. Trials
/// must be independent pure functions of (argv, trial index) and must not
/// print — on the procs backend they execute in worker subprocesses, so
/// results travel through encode/decode (use exec/wire.h; doubles must be
/// wire-encoded, never printf'd, to stay byte-exact). Pass a `pool` (e.g.
/// a ThreadPool(1)) to bound trial-level concurrency on the thread backend
/// when each trial holds a large working set; nested fan-outs inside a
/// trial still use the shared pool.
template <typename R>
std::vector<R> RunTrials(const Args& args, std::size_t count,
                         const std::function<R(std::size_t)>& trial,
                         const std::function<std::string(const R&)>& encode,
                         const std::function<R(const std::string&)>& decode,
                         runtime::ThreadPool* pool = nullptr) {
  const std::vector<std::string> raw = RunTasksOrDie(
      args, count, [&](std::size_t i) { return encode(trial(i)); }, pool);
  std::vector<R> results;
  results.reserve(count);
  for (const std::string& bytes : raw) results.push_back(decode(bytes));
  return results;
}

/// Builds the named schemes for this run (shared substructure where
/// possible) — exits with the registry listing if a name is unknown.
std::vector<std::unique_ptr<api::RoutingScheme>> MakeSchemesOrDie(
    const std::vector<std::string>& names, const Graph& g, const Params& p);

/// The full Fig. 4 / Fig. 5 comparison on a ~1,024-node topology for every
/// selected scheme (default: the five built-ins): state CDFs over nodes,
/// stretch CDFs over sampled pairs (first/later rows where the scheme
/// distinguishes them), and congestion CDFs over edges. Each scheme is one
/// executor task, so --backend=procs spreads schemes across workers.
/// `tag` prefixes the TSV output files.
void RunThousandNodeComparison(const std::string& tag, const Graph& g,
                               const Args& args);

}  // namespace disco::bench
