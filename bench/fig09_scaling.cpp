// Fig. 9: scaling with network size on geometric random graphs — mean path
// stretch (left) and mean per-node state (right), n = 2k .. 16k. By
// default the paper's series: Disco and S4 stretch, Disco/NDDisco/S4
// state; --schemes=<a,b> swaps in any registered set (stretch AND state).
//
// Paper result: S4's first-packet stretch stays high (~2.5+) at every size
// while Disco's first/later and S4's later stretch hug 1; routing state for
// all three grows as ~sqrt(n log n), ordered S4 < NDDisco < Disco.
//
// --graph=<g> runs the normal stretch/state point on one given topology
// instead of generating it: a stored snapshot's 64-hex fingerprint
// (resolved through --store as an mmap view), a snapshot file or an edge
// list.
#include "bench_common.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <optional>

#include "exec/wire.h"
#include "graph/generators.h"
#include "sim/metrics.h"

namespace disco::bench {
namespace {

constexpr const char* kExtraUsage =
    "  --graph=<g>      run on this topology instead of generating one: a\n"
    "                   stored snapshot's 64-hex fingerprint (needs\n"
    "                   --store=), a snapshot file or an edge list\n";

std::string Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

int Main(int argc, char** argv) {
  std::string graph_spec;
  const Args args = Args::Parse(
      argc, argv, kExtraUsage, [&](const std::string& arg) {
        if (arg.compare(0, 8, "--graph=") != 0) return false;
        graph_spec = arg.substr(8);
        return true;
      });
  Banner("Fig. 9 — mean stretch and mean state vs n (geometric graphs)",
         "S4-First stays ~2.5+; other stretch curves ≈1; state grows "
         "~sqrt(n log n) for all three");

  std::vector<NodeId> sizes = {2048, 4096, 8192, 16384};
  if (args.quick) sizes = {1024, 2048};
  if (args.n != 0) sizes = {args.n};
  // A given graph is one fixed topology: a single trial. Procs workers
  // re-parse this argv, so they resolve (and, for a stored snapshot,
  // share the mmap'd pages of) the same graph.
  std::optional<Graph> given;
  if (!graph_spec.empty()) {
    given = LoadGraphOrDie(graph_spec);
    sizes = {given->num_nodes()};
  }
  const std::size_t pairs = args.SamplesOr(args.quick ? 150 : 500);

  // The paper's default plots stretch for Disco/S4 but state for
  // Disco/NDDisco/S4; an explicit --schemes list drives both.
  const std::vector<std::string> stretch_names =
      args.SchemesOr({"disco", "s4"});
  const std::vector<std::string> state_names =
      args.SchemesOr({"disco", "nddisco", "s4"});
  std::vector<std::string> build_names = stretch_names;
  for (const std::string& name : state_names) {
    if (std::find(build_names.begin(), build_names.end(), name) ==
        build_names.end()) {
      build_names.push_back(name);
    }
  }

  // Column headers come from registry metadata so they are printable
  // before any scheme is built.
  std::vector<std::string> columns, tsv_keys;
  for (const std::string& name : stretch_names) {
    const api::SchemeInfo* info = api::GetSchemeInfo(name);
    if (info->distinguishes_first_packet) {
      columns.push_back(info->short_name + "First");
      columns.push_back(info->short_name + "Later");
      tsv_keys.push_back(Lower(info->short_name) + "_first");
      tsv_keys.push_back(Lower(info->short_name) + "_later");
    } else {
      columns.push_back(info->short_name);
      tsv_keys.push_back(Lower(info->short_name));
    }
  }
  const std::size_t stretch_cols = columns.size();
  for (const std::string& name : state_names) {
    const api::SchemeInfo* info = api::GetSchemeInfo(name);
    columns.push_back("state:" + info->short_name);
    tsv_keys.push_back("state_" + Lower(info->short_name));
  }

  std::printf("%-8s", "n");
  for (const std::string& c : columns) std::printf(" %-12s", c.c_str());
  std::printf("\n");

  // Each size is one independent executor trial (--backend selects
  // in-process threads or worker subprocesses; each trial's own
  // construction/sampling fan-outs nest inside it either way); results are
  // printed in size order afterwards, so stdout and the TSV are
  // byte-identical no matter how many threads or workers ran. On the
  // thread backend, large sweeps run trials one at a time — concurrent
  // trials each hold a full graph plus two prewarmed tree caches, and the
  // inner fan-outs already saturate the cores — while small (--quick)
  // sweeps overlap whole trials too. Rows cross process boundaries
  // wire-encoded (doubles as bit patterns), never through text.
  struct Row {
    NodeId n = 0;
    std::vector<double> values;  // stretch means, then state means
  };
  const auto encode_row = [](const Row& row) {
    std::string out;
    exec::PutU64(&out, row.n);
    exec::PutU64(&out, row.values.size());
    for (const double v : row.values) exec::PutDouble(&out, v);
    return out;
  };
  const auto decode_row = [](const std::string& bytes) {
    exec::WireReader r(bytes);
    std::uint64_t n = 0, count = 0;
    Row row;
    bool ok = r.GetU64(&n) && r.GetU64(&count) && count <= bytes.size() / 8;
    if (ok) {
      row.n = static_cast<NodeId>(n);
      row.values.resize(static_cast<std::size_t>(count));
      for (double& v : row.values) ok = r.GetDouble(&v) && ok;
    }
    if (!ok) {
      // A malformed result must never become a silent zero-filled row in
      // the published table.
      std::fprintf(stderr, "fig09: malformed trial result (%zu bytes)\n",
                   bytes.size());
      std::exit(1);
    }
    return row;
  };
  runtime::ThreadPool serial_trials(1);
  const bool overlap_trials = sizes.back() <= 4096;
  const std::vector<Row> rows = RunTrials<Row>(
      args, sizes.size(),
      [&](std::size_t trial) {
        Graph generated;
        if (!given) generated = MakeTopology("geo", sizes[trial], args.seed);
        const Graph& g = given ? *given : generated;
        const Params p = args.MakeParams();
        auto schemes = MakeSchemesOrDie(build_names, g, p);
        // MakeSchemes preserves order, so look up by requested key rather
        // than instance name() (a custom-registered variant may be backed
        // by a built-in adapter).
        const auto scheme_of =
            [&](const std::string& name) -> api::RoutingScheme* {
          for (std::size_t i = 0; i < build_names.size(); ++i) {
            if (build_names[i] == name) return schemes[i].get();
          }
          return nullptr;
        };
        // The stretch samples and state pass below touch most landmark
        // trees and every vicinity; fan the Dijkstras out now instead of
        // faulting them in per route.
        for (const auto& s : schemes) s->PrewarmFor(s->AllNodes());

        const PairSample sample = SamplePairs(g, pairs, args.seed);
        Row row;
        row.n = g.num_nodes();
        for (const std::string& name : stretch_names) {
          api::RoutingScheme* s = scheme_of(name);
          // Registry metadata decided the headers above; it must also
          // decide the per-row column count, or they could disagree.
          if (api::GetSchemeInfo(name)->distinguishes_first_packet) {
            row.values.push_back(Summarize(SampleStretch(
                sample, s->route_fn(api::Phase::kFirst))).mean);
          }
          row.values.push_back(Summarize(SampleStretch(
              sample, s->route_fn(api::Phase::kLater))).mean);
        }
        for (const std::string& name : state_names) {
          row.values.push_back(Summarize(scheme_of(name)->CollectState())
                                   .mean);
        }
        return row;
      },
      encode_row, decode_row, overlap_trials ? nullptr : &serial_trials);

  std::string tsv = "n";
  for (const std::string& key : tsv_keys) tsv += "\t" + key;
  tsv += "\n";
  for (const Row& row : rows) {
    std::printf("%-8u", row.n);
    for (std::size_t c = 0; c < row.values.size(); ++c) {
      std::printf(c < stretch_cols ? " %-12.3f" : " %-12.1f",
                  row.values[c]);
    }
    std::printf("\n");
    char cell[64];
    std::snprintf(cell, sizeof cell, "%u", row.n);
    tsv += cell;
    for (const double v : row.values) {
      std::snprintf(cell, sizeof cell, "\t%f", v);
      tsv += cell;
    }
    tsv += "\n";
  }
  WriteFileOrWarn(args.OutPath("fig09_scaling.tsv"), tsv);
  return 0;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
