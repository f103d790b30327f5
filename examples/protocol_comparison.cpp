// Protocol comparison: run any set of registered routing schemes side by
// side on a topology of your choice and print a compact scorecard — the
// evaluation of §5 in miniature, on your own graph.
//
//   $ ./protocol_comparison [family] [n] [seed] [schemes]
//   $ ./protocol_comparison gnm 2048 7 disco,s4,vrr
//
// Schemes come from the registry (src/api/registry.h), so a protocol added
// there shows up here with no changes. The family is one of
// TopologyFamilies() (graph/generators.h); pass a file path instead to
// load a real edge-list topology.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/registry.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "sim/metrics.h"
#include "util/parse_int.h"
#include "util/stats.h"

using namespace disco;

int main(int argc, char** argv) {
  // "2048x" or "-1" as a size or seed must be a usage error, not a
  // silently truncated (or wrapped) value feeding a misleading scorecard.
  const auto int_or_die = [](const char* v, const char* what, auto* out) {
    if (ParseInt(v, out)) return;
    std::fprintf(stderr, "%s needs a non-negative integer, got \"%s\"\n",
                 what, v);
    std::exit(2);
  };
  const std::string family = argc > 1 ? argv[1] : "geo";
  NodeId n = 1024;
  std::uint64_t seed = 1;
  if (argc > 2) int_or_die(argv[2], "n", &n);
  if (argc > 3) int_or_die(argv[3], "seed", &seed);
  const std::vector<std::string> names =
      argc > 4 ? api::SplitSchemeList(argv[4]) : api::RegisteredSchemes();

  Graph g = MakeTopology(family, n, seed);
  if (g.num_nodes() == 0) {
    const auto loaded = LoadEdgeList(family);
    if (!loaded) {
      std::string families;
      for (const std::string& f : TopologyFamilies()) families += f + "|";
      std::fprintf(stderr,
                   "usage: %s [%s<edge-list-file>] [n] [seed] "
                   "[scheme,scheme,...]\n",
                   argv[0], families.c_str());
      return 2;
    }
    g = *loaded;
  }
  std::printf("topology: %s, n=%u, m=%zu\n", family.c_str(), g.num_nodes(),
              g.num_edges());

  Params p;
  p.seed = seed;
  const auto schemes = api::MakeSchemes(names, g, p);
  if (schemes.empty()) {
    std::string registered;
    for (const auto& r : api::RegisteredSchemes()) {
      registered += registered.empty() ? r : "," + r;
    }
    std::fprintf(stderr, "unknown scheme (registered: %s)\n",
                 registered.c_str());
    return 2;
  }

  // One pair sample: every protocol routes the same pairs.
  const PairSample pairs = SamplePairs(g, 500, seed);

  std::printf("\n%-22s %-12s %-12s %-12s %-12s %-12s\n", "protocol",
              "stretch.mean", "stretch.p95", "stretch.max", "state.mean",
              "state.max");
  for (const auto& scheme : schemes) {
    const Summary state = Summarize(scheme->CollectState());
    const auto print_row = [&](const std::string& row_label,
                               const RouteFn& fn) {
      const Summary st = Summarize(SampleStretch(pairs, fn));
      std::printf("%-22s %-12.3f %-12.3f %-12.3f %-12.1f %-12.0f\n",
                  row_label.c_str(), st.mean, st.p95, st.max, state.mean,
                  state.max);
    };
    if (scheme->distinguishes_first_packet()) {
      print_row(scheme->label() + " (first pkt)",
                scheme->route_fn(api::Phase::kFirst));
      print_row(scheme->label() + " (later pkts)",
                scheme->route_fn(api::Phase::kLater));
    } else {
      print_row(scheme->label(), scheme->route_fn(api::Phase::kLater));
    }
  }
  return 0;
}
