// disco_sweep — multi-graph experiment sweeps over the scheme registry
// (the ROADMAP driver). Expands a (topology × n × seed × scheme × scenario)
// grid, runs every cell as one task of the exec::Executor layer, and
// writes the table to <out>/sweep.tsv.
//
// Single process, one machine:
//   $ disco_sweep --out=results            # whole grid -> results/sweep.tsv
//
// One machine, a supervised worker-process pool (a task whose worker died
// is retried on another — see src/exec/executor.h):
//   $ disco_sweep --backend=procs --workers=4 --out=results
//
// The table is byte-identical whichever backend ran it: cells are
// self-contained (each builds its own graph and converged scheme from
// topology, n, and seed) and indexed by a pure function of the grid spec.
#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "api/sweep.h"
#include "graph/generators.h"

namespace disco::bench {
namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  return api::SplitSchemeList(csv);  // same "a,b,c" syntax
}

// Strictly parses a csv of positive integers ("512,1o24" must not become
// a silent 1-node sweep, nor "-1" seed 2^64-1). Empty input, zeros, and
// values T cannot hold are rejected too.
template <typename T>
bool ParsePositiveCsv(const std::string& csv, std::vector<T>* out) {
  const auto pieces = SplitCsv(csv);
  if (pieces.empty()) return false;
  for (const std::string& s : pieces) {
    T v = 0;
    if (!ParseInt(s.c_str(), &v) || v == 0) return false;
    out->push_back(v);
  }
  return true;
}

int Main(int argc, char** argv) {
  std::vector<std::string> topos, scenarios;
  std::vector<NodeId> sizes_flag;
  std::vector<std::uint64_t> seeds_flag;
  CampaignArgs campaign;
  static const std::string usage =
      "  --topos=<a,b>    topology families (default gnm,geo; known: " +
      JoinNames(TopologyFamilies()) +
      ")\n"
      "  --sizes=<a,b>    node counts (default 512,1024)\n"
      "  --seeds=<a,b>    one trial per seed (default 1,2)\n"
      "  --scenarios=<a,b> dynamics scenario axis (default null; known:\n"
      "                   " +
      JoinNames(ScenarioKinds()) +
      "); cells\n"
      "                   with a non-null scenario add a DES re-convergence\n"
      "                   campaign of the scheme's protocol plane\n" +
      CampaignArgs::Usage();
  const Args args = Args::Parse(
      argc, argv, usage.c_str(), [&](const std::string& arg) {
        // A recognized flag with a malformed value is its own error, not
        // an "unknown flag".
        const auto bad_value = [&]() -> bool {
          std::fprintf(stderr, "invalid value in %s\n", arg.c_str());
          std::exit(2);
        };
        if (arg.compare(0, 8, "--topos=") == 0) {
          topos = SplitCsv(arg.substr(8));
          return !topos.empty() || bad_value();
        }
        if (arg.compare(0, 8, "--sizes=") == 0) {
          return ParsePositiveCsv(arg.substr(8), &sizes_flag) || bad_value();
        }
        if (arg.compare(0, 8, "--seeds=") == 0) {
          return ParsePositiveCsv(arg.substr(8), &seeds_flag) || bad_value();
        }
        if (arg.compare(0, 12, "--scenarios=") == 0) {
          scenarios = SplitCsv(arg.substr(12));
          return !scenarios.empty() || bad_value();
        }
        // --replicas / --scenario (single-kind shorthand for the axis) /
        // --scn-* knobs.
        return campaign.Consume(arg);
      });
  const std::string out_dir = args.out.empty() ? "." : args.out;

  api::SweepSpec spec;
  spec.topologies = topos.empty()
                        ? (args.quick ? std::vector<std::string>{"gnm"}
                                      : std::vector<std::string>{"gnm",
                                                                 "geo"})
                        : topos;
  for (const std::string& t : spec.topologies) {
    const auto& known = TopologyFamilies();
    if (std::find(known.begin(), known.end(), t) == known.end()) {
      std::fprintf(stderr, "unknown topology family \"%s\" (known: %s)\n",
                   t.c_str(), JoinNames(known).c_str());
      return 2;
    }
  }
  if (!sizes_flag.empty()) {
    spec.sizes = sizes_flag;
  } else if (args.n != 0) {
    spec.sizes = {args.n};
  } else {
    spec.sizes = args.quick ? std::vector<NodeId>{256}
                            : std::vector<NodeId>{512, 1024};
  }
  spec.seeds = seeds_flag.empty() ? std::vector<std::uint64_t>{1, 2}
                                  : seeds_flag;
  spec.schemes = args.SchemesOr(args.quick
                                    ? std::vector<std::string>{"disco", "s4"}
                                    : api::RegisteredSchemes());
  // The dynamics axis: an explicit --scenarios list, else the --scenario
  // shorthand (default "null" keeps the grid purely static).
  spec.scenarios = scenarios.empty()
                       ? std::vector<std::string>{campaign.scenario.kind}
                       : scenarios;
  for (const std::string& s : spec.scenarios) {
    if (!IsScenarioKind(s)) {
      std::fprintf(stderr, "unknown scenario kind \"%s\" (known: %s)\n",
                   s.c_str(), JoinNames(ScenarioKinds()).c_str());
      return 2;
    }
  }
  spec.replicas = campaign.replicas;
  spec.scenario_base = campaign.scenario;
  spec.pairs = args.SamplesOr(args.quick ? 50 : 200);
  spec.base = args.MakeParams();

  const auto cells = api::ExpandGrid(spec);
  std::printf("grid: %zu cells (%zu topologies x %zu sizes x %zu seeds x "
              "%zu schemes x %zu scenarios)\n",
              cells.size(), spec.topologies.size(), spec.sizes.size(),
              spec.seeds.size(), spec.schemes.size(),
              spec.scenarios.size());

  // Each cell is one executor task: on the thread backend they overlap in
  // process (large cells already saturate the pool from the inside, so
  // those run one at a time — fig09's policy); on the procs backend they
  // stream to the worker pool, which retries cells whose worker died.
  // Either way rows come back in cell order, so sweep.tsv is
  // byte-identical across backends and worker counts.
  NodeId max_n = 0;
  for (const NodeId n : spec.sizes) max_n = std::max(max_n, n);
  runtime::ThreadPool serial_trials(1);
  const std::vector<std::string> row_list = RunTasksOrDie(
      args, cells.size(),
      [&](std::size_t i) { return api::RunSweepCell(cells[i], spec); },
      max_n <= 4096 ? nullptr : &serial_trials,
      [&](std::size_t i) {
        const api::SweepCell& c = cells[i];
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "cell %zu (topology=%s n=%u seed=%llu scheme=%s "
                      "scenario=%s)",
                      c.index, c.topology.c_str(), c.n,
                      static_cast<unsigned long long>(c.seed),
                      c.scheme.c_str(), c.scenario.c_str());
        return std::string(buf);
      });
  std::string table = api::SweepSignature(spec) + api::SweepHeader();
  for (const std::string& row : row_list) table += row;
  const std::string path = out_dir + "/sweep.tsv";
  if (!WriteFile(path, table)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu cells)\n", path.c_str(), cells.size());
  return 0;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
