// §5.2 "Error in Estimating Number of Nodes": inject bounded random error
// into every node's estimate of n, then measure (a) how often first-packet
// routing still finds a sloppy-group contact in the vicinity, and (b) the
// change in mean stretch. Also reports what synopsis diffusion actually
// achieves, to show the injected errors are far beyond realistic ones.
//
// Paper result (1,024-node random graph, 5 runs): with 40% error all nodes
// reach all destinations and mean stretch moves +0.6% (1.253 -> 1.261);
// with 60% error a single node failed to cover one sloppy group in one of
// five runs.
#include "bench_common.h"

#include "core/disco.h"

#include <atomic>
#include <cstdio>

#include "sim/metrics.h"
#include "util/rng.h"
#include "util/synopsis.h"

namespace disco::bench {
namespace {

struct RunResult {
  double contact_fraction = 0;  // pairs resolved via sloppy groups
  double mean_first_stretch = 0;
};

RunResult RunOnce(const Graph& g, double error, std::uint64_t seed,
                  const PairSample& pairs, int gbits, int* distinct_bits) {
  const NodeId n = g.num_nodes();
  std::vector<double> estimates(n);
  Rng rng(seed * 7919 + 17);
  for (NodeId v = 0; v < n; ++v) {
    estimates[v] = n * (1.0 + error * 2.0 * (rng.NextDouble() - 0.5));
  }
  Params p;
  p.seed = seed;
  p.group_bits_offset = gbits;
  Disco disco(g, p, NameTable::Default(n), estimates);
  if (distinct_bits != nullptr) {
    int lo = 64, hi = 0;
    for (NodeId v = 0; v < n; ++v) {
      lo = std::min(lo, disco.groups().bits_of(v));
      hi = std::max(hi, disco.groups().bits_of(v));
    }
    *distinct_bits = hi - lo + 1;
  }

  // SampleStretch routes from pool threads, so the tallies are atomic.
  std::atomic<std::size_t> fallbacks{0}, total{0};
  const auto stretch = SampleStretch(pairs, [&](NodeId s, NodeId t) {
    const Route r = disco.RouteFirst(s, t);
    ++total;
    if (r.via_fallback) ++fallbacks;
    return r;
  });
  RunResult out;
  out.contact_fraction =
      total == 0 ? 1.0
                 : 1.0 - static_cast<double>(fallbacks.load()) /
                             static_cast<double>(total.load());
  out.mean_first_stretch = Summarize(stretch).mean;
  return out;
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  Banner("§5.2 — error in estimating n (G(n,m), 5 runs)",
         "40% error: full reachability, mean stretch moves <1%; 60% error: "
         "isolated single-group misses only");
  // Default n = 2048 sits near a group-bits boundary, so ±60% estimates
  // actually split nodes across prefix lengths (at 1024 the grouping is
  // insensitive to 60% error — the sloppiness §4.4 banks on).
  const Graph g = MakeGnm(args, 2048);
  const std::size_t pairs = args.SamplesOr(args.quick ? 200 : 1000);
  const int runs = args.quick ? 2 : 5;
  // Run r draws its pairs at seed + r; every error level reuses them.
  std::vector<PairSample> samples;
  for (int r = 0; r < runs; ++r) {
    samples.push_back(SamplePairs(g, pairs, args.seed + r));
  }

  for (const double error : {0.0, 0.2, 0.4, 0.6}) {
    double contact = 0, stretch = 0;
    double worst_contact = 1.0;
    int distinct_bits = 0;
    for (int r = 0; r < runs; ++r) {
      const RunResult res = RunOnce(g, error, args.seed + r, samples[r],
                                    args.gbits, &distinct_bits);
      contact += res.contact_fraction;
      stretch += res.mean_first_stretch;
      worst_contact = std::min(worst_contact, res.contact_fraction);
    }
    std::printf("error=%.0f%%  group-contact success=%.4f (worst run "
                "%.4f)  mean first-packet stretch=%.4f  (%d distinct "
                "prefix lengths in use)\n",
                error * 100, contact / runs, worst_contact,
                stretch / runs, distinct_bits);
  }

  // Context: what synopsis diffusion actually delivers (§4.1).
  const auto estimates = GossipEstimates(g, 32);
  double max_err = 0;
  for (const double e : estimates) {
    max_err = std::max(max_err,
                       std::abs(e - g.num_nodes()) / g.num_nodes());
  }
  std::printf("\nsynopsis-diffusion estimate error after convergence: "
              "%.1f%% (injected errors above are adversarial)\n",
              max_err * 100);
  return 0;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
