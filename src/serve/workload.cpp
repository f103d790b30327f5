#include "serve/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "runtime/rng_stream.h"
#include "sim/scenario.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/sha256.h"

namespace disco::serve {
namespace {

// Fork streams for the workload's fixed structures. Query streams use
// TaskRng(seed, s) = Rng(seed).Fork(s) with s < spec.streams, so these
// must sit far outside any plausible stream count.
constexpr std::uint64_t kRankFork = 0xD15C05E41ull;
constexpr std::uint64_t kHotFork = 0xD15C05E42ull;

// Share of flash-phase queries sent to the hot set, and share of nodes a
// churn phase departs.
constexpr double kHotFraction = 0.5;
constexpr double kChurnFraction = 0.05;

std::vector<NodeId> Permutation(NodeId n, Rng rng) {
  std::vector<NodeId> perm(n);
  for (NodeId v = 0; v < n; ++v) perm[v] = v;
  for (NodeId i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBelow(i)]);
  }
  return perm;
}

}  // namespace

const char* PhaseName(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kSteady: return "steady";
    case PhaseKind::kFlash: return "flash";
    case PhaseKind::kChurn: return "churn";
  }
  return "?";
}

Workload Workload::Build(const WorkloadSpec& spec, const Graph& g,
                         std::uint64_t seed) {
  Workload w;
  w.spec_ = spec;
  w.seed_ = seed;
  w.n_ = g.num_nodes();

  w.phases_.push_back(PhaseKind::kSteady);
  if (spec.flash) w.phases_.push_back(PhaseKind::kFlash);
  if (spec.churn) w.phases_.push_back(PhaseKind::kChurn);

  w.rank_to_node_ = Permutation(w.n_, Rng(seed).Fork(kRankFork));
  w.cdf_.resize(w.n_);
  double total = 0;
  for (NodeId r = 0; r < w.n_; ++r) {
    total += spec.zipf == 0
                 ? 1.0
                 : std::pow(static_cast<double>(r) + 1.0, -spec.zipf);
    w.cdf_[r] = total;
  }
  for (double& c : w.cdf_) c /= total;
  w.cdf_.back() = 1.0;  // guard against rounding past the last rank

  if (spec.flash) {
    const std::vector<NodeId> hot_rank =
        Permutation(w.n_, Rng(seed).Fork(kHotFork));
    const std::size_t k =
        std::max<std::size_t>(1, std::min<std::size_t>(spec.hot_set, w.n_));
    w.hot_.assign(hot_rank.begin(), hot_rank.begin() + k);
  }

  if (spec.churn) {
    ScenarioSpec scn;
    scn.kind = "churn";
    scn.events = 1;
    scn.fraction = kChurnFraction;
    const Scenario scenario = Scenario::Compile(scn, g, seed, 0);
    w.departed_.assign(w.n_, 0);
    for (const ScenarioEvent& e : scenario.events()) {
      for (const NodeId v : e.node_leaves) w.departed_[v] = 1;
    }
  }
  return w;
}

std::vector<Query> Workload::Stream(std::size_t s) const {
  Rng rng = runtime::TaskRng(seed_, s);
  std::vector<Query> out;
  out.reserve(queries_per_stream());
  for (const PhaseKind phase : phases_) {
    for (std::size_t q = 0; q < spec_.queries_per_stream; ++q) {
      Query query;
      query.phase = phase;
      if (phase == PhaseKind::kFlash &&
          rng.NextDouble() < kHotFraction) {
        query.dst = hot_[rng.NextBelow(hot_.size())];
      } else {
        const double u = rng.NextDouble();
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        const std::size_t rank = it == cdf_.end()
                                     ? cdf_.size() - 1
                                     : static_cast<std::size_t>(
                                           it - cdf_.begin());
        query.dst = rank_to_node_[rank];
      }
      // Uniform source over the other nodes, in one draw.
      query.src = n_ > 1
                      ? static_cast<NodeId>(
                            (query.dst + 1 + rng.NextBelow(n_ - 1)) % n_)
                      : query.dst;
      query.dst_departed =
          phase == PhaseKind::kChurn && departed(query.dst);
      out.push_back(query);
    }
  }
  return out;
}

std::string Workload::FingerprintHex() const {
  Sha256 hash;
  std::string buf;
  for (std::size_t s = 0; s < streams(); ++s) {
    buf.clear();
    PutU64Le(&buf, s);
    for (const Query& q : Stream(s)) {
      PutU32Le(&buf, q.src);
      PutU32Le(&buf, q.dst);
      buf.push_back(static_cast<char>(q.phase));
      buf.push_back(q.dst_departed ? 1 : 0);
    }
    hash.Update(buf);
  }
  return Sha256HexOf(hash.Finalize());
}

std::string Workload::DumpTsv() const {
  std::string out = "stream\tquery\tphase\tsrc\tdst\tdeparted\n";
  char line[96];
  for (std::size_t s = 0; s < streams(); ++s) {
    const std::vector<Query> stream = Stream(s);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Query& q = stream[i];
      std::snprintf(line, sizeof line, "%zu\t%zu\t%s\t%u\t%u\t%d\n", s, i,
                    PhaseName(q.phase), q.src, q.dst,
                    q.dst_departed ? 1 : 0);
      out += line;
    }
  }
  return out;
}

}  // namespace disco::serve
