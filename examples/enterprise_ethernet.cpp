// Enterprise Ethernet on flat MAC addresses — the SEATTLE scenario (§3 of
// the paper) done with guaranteed bounds. SEATTLE looks MAC addresses up
// in a one-hop DHT and then routes on shortest paths: scalable relative to
// flooding Ethernet, but still Θ(n) state per switch and unbounded
// first-packet stretch (the resolution hop). Disco routes on the MAC
// addresses themselves with O~(sqrt(n)) state and stretch ≤ 7/3.
//
// We build a two-level "campus" topology of switches, name each by a MAC
// address, and compare Disco against the SEATTLE-like model (resolution
// detour + shortest paths) and against per-switch state.
#include <cstdio>
#include <string>
#include <vector>

#include "core/disco.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "sim/metrics.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace disco;

namespace {

std::string MacAddress(Rng& rng) {
  char buf[18];
  std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x",
                static_cast<unsigned>(rng.NextBelow(256)),
                static_cast<unsigned>(rng.NextBelow(256)),
                static_cast<unsigned>(rng.NextBelow(256)),
                static_cast<unsigned>(rng.NextBelow(256)),
                static_cast<unsigned>(rng.NextBelow(256)),
                static_cast<unsigned>(rng.NextBelow(256)));
  return buf;
}

}  // namespace

int main() {
  const NodeId n = 4096;
  const Graph g = RouterLevelInternet(n, 2026);  // campus-like two-level
  Rng rng(2026);
  std::vector<std::string> macs;
  macs.reserve(n);
  for (NodeId v = 0; v < n; ++v) macs.push_back(MacAddress(rng));
  std::printf("campus fabric: %u switches, %zu links; names like %s\n",
              g.num_nodes(), g.num_edges(), macs[0].c_str());

  Params params;
  params.seed = 2026;
  Disco disco(g, params, NameTable::FromNames(macs));

  // SEATTLE-like model: the first packet detours via the consistent-hash
  // resolution switch, then shortest paths — which is exactly what Disco's
  // *fallback* path does, so we can measure it directly.
  const PairSample pairs = SamplePairs(g, 600, 2026);
  const auto disco_first = SampleStretch(
      pairs, [&](NodeId s, NodeId t) { return disco.RouteFirst(s, t); });
  const auto seattle_like = SampleStretch(
      pairs,
      [&](NodeId s, NodeId t) {
        // resolution detour: s -> owner(h(t)) -> t over shortest paths
        const NodeId owner =
            disco.resolution().OwnerLandmark(disco.names().hash(t));
        auto to_owner = disco.nd().LandmarkTree(owner)->PathTo(s);
        std::reverse(to_owner.begin(), to_owner.end());
        auto to_t = disco.nd().LandmarkTree(owner)->PathTo(t);
        Route r;
        r.path = JoinPaths(std::move(to_owner), to_t);
        r.length = PathLength(g, r.path);
        return r;
      });

  const Summary d = Summarize(disco_first);
  const Summary s = Summarize(seattle_like);
  std::printf("\nfirst-packet stretch (MAC-addressed flows):\n");
  std::printf("  %-28s mean=%.2f p95=%.2f max=%.2f (bounded ≤ 7)\n",
              "Disco", d.mean, d.p95, d.max);
  std::printf("  %-28s mean=%.2f p95=%.2f max=%.2f (unbounded)\n",
              "SEATTLE-like resolution", s.mean, s.p95, s.max);

  std::size_t disco_max_state = 0;
  for (NodeId v = 0; v < n; ++v) {
    disco_max_state = std::max(disco_max_state, disco.State(v).total());
  }
  std::printf("\nper-switch forwarding state:\n");
  std::printf("  %-28s %zu entries max (O~(sqrt(n)))\n", "Disco",
              disco_max_state);
  std::printf("  %-28s %u entries (one per MAC, Θ(n))\n",
              "SEATTLE-like / shortest-path", n);
  std::printf("\nSame flat MAC addresses, no location prefixes, no "
              "flooding — with guarantees SEATTLE's design cannot give.\n");
  return 0;
}
