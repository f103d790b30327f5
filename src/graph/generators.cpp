#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "graph/components.h"
#include "graph/io.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "runtime/rng_stream.h"
#include "util/rng.h"

namespace disco {
namespace {

std::uint64_t EdgeKey(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (std::uint64_t{a} << 32) | b;
}

// Chunk width for the parallel generators. The chunking is a pure function
// of the problem size — never of the thread count — so per-chunk RNG
// streams (runtime::TaskRng) and chunk-major result concatenation make the
// generated graph bit-identical however many threads ran.
constexpr std::size_t kGenGrain = 8192;

// Every generator streams its edges straight into a GraphBuilder (which
// lays the CSR out in place) instead of materializing a WeightedEdge list
// and copying it through FromEdges — at a million nodes the discarded
// intermediate was as large as the graph itself. Emission order is
// unchanged, so EdgeIds and fingerprints are too.
void CountGenerated() { GraphLoadCounters().generated.Inc(); }

}  // namespace

Graph Gnm(NodeId n, std::size_t m, std::uint64_t seed) {
  DISCO_TRACE_SPAN("graph.generate");
  assert(n >= 2);
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  assert(m <= max_edges);
  (void)max_edges;

  // KaGen-style chunked sampling: the edge-index range is cut into fixed
  // chunks, chunk c draws its quota of distinct candidate edges from its
  // own per-chunk stream, and chunks merge in index order. Cross-chunk
  // duplicates are discarded during the ordered merge and replaced from a
  // dedicated top-up stream, so the graph has exactly m edges. Chunk 0
  // deliberately continues the legacy single-stream Rng(seed): graphs
  // small enough for one chunk — every unit-test topology — come out
  // bit-identical to the original sequential generator.
  const std::size_t num_chunks = (m + kGenGrain - 1) / kGenGrain;
  // Candidates are unweighted, so a chunk stores one packed (a, b) word
  // per edge, orientation as drawn.
  std::vector<std::vector<std::uint64_t>> chunk_edges(num_chunks);
  runtime::ParallelForTasks(num_chunks, [&](std::size_t c) {
    const std::size_t quota = std::min(kGenGrain, m - c * kGenGrain);
    Rng rng = c == 0 ? Rng(seed) : runtime::TaskRng(seed, c);
    std::unordered_set<std::uint64_t> used;
    used.reserve(quota * 2);
    auto& edges = chunk_edges[c];
    edges.reserve(quota);
    while (edges.size() < quota) {
      const NodeId a = static_cast<NodeId>(rng.NextBelow(n));
      const NodeId b = static_cast<NodeId>(rng.NextBelow(n));
      if (a == b) continue;
      if (!used.insert(EdgeKey(a, b)).second) continue;
      edges.push_back((std::uint64_t{a} << 32) | b);
    }
  });

  std::unordered_set<std::uint64_t> used;
  used.reserve(m * 2);
  GraphBuilder gb(n, m);
  for (const auto& chunk : chunk_edges) {
    for (const std::uint64_t packed : chunk) {
      const NodeId a = static_cast<NodeId>(packed >> 32);
      const NodeId b = static_cast<NodeId>(packed);
      if (used.insert(EdgeKey(a, b)).second) gb.Add(a, b, 1.0);
    }
  }
  Rng top_up = runtime::TaskRng(seed, num_chunks);
  while (gb.num_edges() < m) {
    const NodeId a = static_cast<NodeId>(top_up.NextBelow(n));
    const NodeId b = static_cast<NodeId>(top_up.NextBelow(n));
    if (a == b) continue;
    if (!used.insert(EdgeKey(a, b)).second) continue;
    gb.Add(a, b, 1.0);
  }
  CountGenerated();
  return std::move(gb).Build();
}

Graph ConnectedGnm(NodeId n, std::size_t m, std::uint64_t seed) {
  return LargestComponent(Gnm(n, m, seed));
}

Graph RandomGeometric(NodeId n, double target_avg_degree,
                      std::uint64_t seed) {
  DISCO_TRACE_SPAN("graph.generate");
  assert(n >= 2);
  // Coordinates: each fixed chunk of the node range draws from its own
  // stream, so placement is reproducible at any thread count. Chunk 0
  // continues the legacy single-stream Rng(seed), keeping every graph
  // that fits one chunk bit-identical to the original sequential
  // generator (the edge pass below is RNG-free and v-major either way).
  std::vector<double> x(n), y(n);
  runtime::ParallelFor(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        Rng rng = lo < kGenGrain ? Rng(seed)
                                 : runtime::TaskRng(seed, lo / kGenGrain);
        for (std::size_t v = lo; v < hi; ++v) {
          x[v] = rng.NextDouble();
          y[v] = rng.NextDouble();
        }
      },
      nullptr, kGenGrain);
  // Expected neighbors within radius r is ~ n * pi * r^2 (ignoring border
  // effects), so solve for the target degree.
  const double r =
      std::sqrt(target_avg_degree / (M_PI * static_cast<double>(n)));

  // Grid buckets of side r: candidate partners live in the 3x3 neighborhood.
  const int cells = std::max(1, static_cast<int>(1.0 / r));
  const double cell = 1.0 / cells;
  std::vector<std::vector<NodeId>> bucket(
      static_cast<std::size_t>(cells) * cells);
  auto bucket_of = [&](double px, double py) {
    int cx = std::min(cells - 1, static_cast<int>(px / cell));
    int cy = std::min(cells - 1, static_cast<int>(py / cell));
    return static_cast<std::size_t>(cy) * cells + cx;
  };
  for (NodeId v = 0; v < n; ++v) bucket[bucket_of(x[v], y[v])].push_back(v);

  // Neighbor search (the hot loop): chunk-local edge lists streamed into
  // the builder in chunk order reproduce the sequential v-major edge
  // order exactly.
  const std::size_t num_chunks = (n + kGenGrain - 1) / kGenGrain;
  std::vector<std::vector<WeightedEdge>> chunk_edges(num_chunks);
  const double r2 = r * r;
  runtime::ParallelFor(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        auto& out = chunk_edges[lo / kGenGrain];
        for (std::size_t vi = lo; vi < hi; ++vi) {
          const NodeId v = static_cast<NodeId>(vi);
          const int cx = std::min(cells - 1, static_cast<int>(x[v] / cell));
          const int cy = std::min(cells - 1, static_cast<int>(y[v] / cell));
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              const int nx = cx + dx, ny = cy + dy;
              if (nx < 0 || ny < 0 || nx >= cells || ny >= cells) continue;
              for (const NodeId u :
                   bucket[static_cast<std::size_t>(ny) * cells + nx]) {
                if (u <= v) continue;  // each pair once
                const double ddx = x[v] - x[u], ddy = y[v] - y[u];
                const double d2 = ddx * ddx + ddy * ddy;
                if (d2 <= r2) out.push_back({v, u, std::sqrt(d2)});
              }
            }
          }
        }
      },
      nullptr, kGenGrain);
  std::size_t total = 0;
  for (const auto& chunk : chunk_edges) total += chunk.size();
  GraphBuilder gb(n, total);
  for (const auto& chunk : chunk_edges) gb.Add(chunk);
  CountGenerated();
  return std::move(gb).Build();
}

Graph ConnectedGeometric(NodeId n, double target_avg_degree,
                         std::uint64_t seed) {
  return LargestComponent(RandomGeometric(n, target_avg_degree, seed));
}

Graph BarabasiAlbert(NodeId n, int m_per_node, std::uint64_t seed) {
  DISCO_TRACE_SPAN("graph.generate");
  assert(n >= 2);
  assert(m_per_node >= 1);
  Rng rng(seed);
  GraphBuilder gb(n, static_cast<std::size_t>(n) * m_per_node);
  // `targets` holds one entry per edge endpoint, so sampling uniformly from
  // it is sampling proportionally to degree.
  std::vector<NodeId> targets;
  targets.reserve(2 * static_cast<std::size_t>(n) * m_per_node);

  const NodeId seed_nodes =
      std::min<NodeId>(n, static_cast<NodeId>(m_per_node) + 1);
  for (NodeId v = 1; v < seed_nodes; ++v) {  // small initial clique
    for (NodeId u = 0; u < v; ++u) {
      gb.Add(u, v, 1.0);
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  for (NodeId v = seed_nodes; v < n; ++v) {
    // m_per_node distinct targets; a sorted vector (not a hash set) keeps
    // the emission order — which feeds the degree-biased `targets` stream
    // and hence the whole topology — independent of stdlib bucket layout.
    std::vector<NodeId> chosen;
    while (chosen.size() < static_cast<std::size_t>(m_per_node)) {
      const NodeId u = targets[rng.NextBelow(targets.size())];
      if (u != v &&
          std::find(chosen.begin(), chosen.end(), u) == chosen.end()) {
        chosen.push_back(u);
      }
    }
    std::sort(chosen.begin(), chosen.end());
    for (const NodeId u : chosen) {
      gb.Add(u, v, 1.0);
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  CountGenerated();
  return std::move(gb).Build();
}

Graph AsLevelInternet(NodeId n, std::uint64_t seed) {
  return BarabasiAlbert(n, 2, seed);
}

Graph RouterLevelInternet(NodeId n, std::uint64_t seed) {
  assert(n >= 64);
  Rng rng(seed);

  // PoPs hold ~16 routers on average (geometric sizes in [4, 48]).
  std::vector<NodeId> pop_size;
  NodeId assigned = 0;
  while (assigned < n) {
    NodeId size = 4;
    while (size < 48 && assigned + size < n && rng.NextDouble() < 0.92) {
      ++size;
    }
    size = std::min<NodeId>(size, n - assigned);
    pop_size.push_back(size);
    assigned += size;
  }
  const NodeId num_pops = static_cast<NodeId>(pop_size.size());

  std::vector<NodeId> pop_start(num_pops);
  NodeId next = 0;
  for (NodeId p = 0; p < num_pops; ++p) {
    pop_start[p] = next;
    next += pop_size[p];
  }

  GraphBuilder gb(n, 2 * static_cast<std::size_t>(n));
  // Intra-PoP: a ring plus a chord, giving redundancy without hub blowup.
  for (NodeId p = 0; p < num_pops; ++p) {
    const NodeId s = pop_start[p], sz = pop_size[p];
    if (sz == 1) continue;
    for (NodeId i = 0; i < sz; ++i) {
      gb.Add(s + i, s + (i + 1) % sz, 1.0);
    }
    if (sz >= 6) {
      for (NodeId i = 0; i < sz / 3; ++i) {
        const NodeId a = s + static_cast<NodeId>(rng.NextBelow(sz));
        const NodeId b = s + static_cast<NodeId>(rng.NextBelow(sz));
        if (a != b) gb.Add(a, b, 1.0);
      }
    }
  }

  // Inter-PoP: preferential attachment at the PoP level; each inter-PoP
  // link lands on uniform-random routers inside the two PoPs.
  std::vector<NodeId> pop_targets;
  auto random_router = [&](NodeId p) {
    return pop_start[p] + static_cast<NodeId>(rng.NextBelow(pop_size[p]));
  };
  for (NodeId p = 1; p < num_pops; ++p) {
    const int links = (p < 3) ? 1 : 2;
    // Sorted-vector emission for the same determinism reason as in
    // BarabasiAlbert above.
    std::vector<NodeId> chosen;
    while (chosen.size() < static_cast<std::size_t>(links) &&
           chosen.size() < p) {
      NodeId q;
      if (pop_targets.empty() || rng.NextDouble() < 0.2) {
        q = static_cast<NodeId>(rng.NextBelow(p));
      } else {
        q = pop_targets[rng.NextBelow(pop_targets.size())];
        if (q >= p) continue;
      }
      if (std::find(chosen.begin(), chosen.end(), q) == chosen.end()) {
        chosen.push_back(q);
      }
    }
    std::sort(chosen.begin(), chosen.end());
    for (const NodeId q : chosen) {
      // Two rng draws: sequence them explicitly (function arguments are
      // unsequenced; the historical brace-init emission drew p's router
      // first, and the golden fingerprints pin that order).
      const NodeId pr = random_router(p);
      const NodeId qr = random_router(q);
      gb.Add(pr, qr, 1.0);
      pop_targets.push_back(p);
      pop_targets.push_back(q);
    }
  }
  CountGenerated();
  return std::move(gb).Build();
}

namespace {

struct Family {
  const char* name;
  Graph (*make)(NodeId n, std::uint64_t seed);
};

const Family kFamilies[] = {
    {"gnm",
     [](NodeId n, std::uint64_t seed) {
       return ConnectedGnm(n, 4ull * n, seed);
     }},
    {"geo",
     [](NodeId n, std::uint64_t seed) {
       return ConnectedGeometric(n, 8.0, seed);
     }},
    {"as", &AsLevelInternet},
    {"router", &RouterLevelInternet},
};

}  // namespace

const std::vector<std::string>& TopologyFamilies() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Family& f : kFamilies) out.emplace_back(f.name);
    return out;
  }();
  return names;
}

Graph MakeTopology(const std::string& family, NodeId n, std::uint64_t seed) {
  for (const Family& f : kFamilies) {
    if (family == f.name) return f.make(n, seed);
  }
  return Graph{};
}

Graph Ring(NodeId n) {
  assert(n >= 3);
  GraphBuilder gb(n, n);
  for (NodeId v = 0; v < n; ++v) gb.Add(v, (v + 1) % n, 1.0);
  CountGenerated();
  return std::move(gb).Build();
}

Graph Grid(NodeId rows, NodeId cols) {
  assert(rows >= 1 && cols >= 1);
  GraphBuilder gb(rows * cols, 2 * static_cast<std::size_t>(rows) * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) gb.Add(id(r, c), id(r, c + 1), 1.0);
      if (r + 1 < rows) gb.Add(id(r, c), id(r + 1, c), 1.0);
    }
  }
  CountGenerated();
  return std::move(gb).Build();
}

Graph S4WorstCaseTree(NodeId branching) {
  assert(branching >= 1);
  const NodeId n = 1 + branching + branching * branching;
  GraphBuilder gb(n, static_cast<std::size_t>(n) - 1);
  // Node 0 is the root; children are 1..branching; grandchildren follow.
  for (NodeId c = 1; c <= branching; ++c) gb.Add(0, c, 1.0);
  NodeId next = branching + 1;
  for (NodeId c = 1; c <= branching; ++c) {
    for (NodeId i = 0; i < branching; ++i) {
      gb.Add(c, next++, 2.0);
    }
  }
  CountGenerated();
  return std::move(gb).Build();
}

}  // namespace disco
