#include "baselines/vrr.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "graph/shortest_path.h"
#include "util/hashring.h"
#include "util/rng.h"

namespace disco {
namespace {

// Removes cycles from a greedy walk, keeping the first visit of each node
// (what a real setup message's recorded path reduces to).
std::vector<NodeId> StripLoops(const std::vector<NodeId>& walk) {
  std::vector<NodeId> out;
  std::unordered_map<NodeId, std::size_t> pos;
  for (const NodeId v : walk) {
    const auto it = pos.find(v);
    if (it != pos.end()) {
      for (std::size_t i = it->second + 1; i < out.size(); ++i) {
        pos.erase(out[i]);
      }
      out.resize(it->second + 1);
    } else {
      pos[v] = out.size();
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace

Vrr::PairKey Vrr::KeyOf(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<PairKey>(a) << 32) | b;
}

Vrr::Vrr(const Graph& g, const Params& params, int vset_half)
    : g_(&g), names_(NameTable::Default(g.num_nodes())),
      vset_half_(vset_half) {
  const NodeId n = g.num_nodes();
  joined_.assign(n, 0);
  recs_.resize(n);
  if (n == 0) return;
  stats_ = &build_stats_;

  // Join order: grow the joined component outward from a random seed
  // (each step admits a random node physically adjacent to the component).
  Rng rng(params.seed ^ 0x7bb0c0ffee123ULL);
  std::vector<NodeId> frontier;
  std::vector<char> in_frontier(n, 0);
  const NodeId seed_node = static_cast<NodeId>(rng.NextBelow(n));
  frontier.push_back(seed_node);
  in_frontier[seed_node] = 1;
  while (!frontier.empty()) {
    const std::size_t pick = rng.NextBelow(frontier.size());
    const NodeId x = frontier[pick];
    frontier[pick] = frontier.back();
    frontier.pop_back();
    Join(x);
    for (const Neighbor& nb : g.neighbors(x)) {
      if (!joined_[nb.to] && !in_frontier[nb.to]) {
        in_frontier[nb.to] = 1;
        frontier.push_back(nb.to);
      }
    }
  }

  stats_ = nullptr;
  for (std::vector<Rec>& recs : recs_) recs.shrink_to_fit();

  // Diagnostics: mean stored path length across live pairs. A path of h
  // hops puts a record pair on each of its h + 1 nodes.
  std::size_t nodes_on_paths = 0;
  for (const std::vector<Rec>& recs : recs_) nodes_on_paths += recs.size() / 2;
  const std::size_t live = pair_paths_.size();
  build_stats_.mean_setup_hops =
      live == 0 ? 0
                : static_cast<double>(nodes_on_paths - live) /
                      static_cast<double>(live);
}

void Vrr::Join(NodeId x) {
  const std::pair<HashValue, NodeId> me{names_.hash(x), x};
  const std::size_t m = ring_.size();
  if (m == 0) {
    joined_[x] = 1;
    ring_.push_back(me);
    return;
  }

  // x's vset targets, read off the ring *before* x becomes active: while
  // its own paths are being set up, a joining node must not attract or
  // forward traffic (it has no entries yet), exactly as in the protocol.
  const std::size_t i = static_cast<std::size_t>(
      std::lower_bound(ring_.begin(), ring_.end(), me) - ring_.begin());
  auto pre = [&](std::ptrdiff_t idx) {
    return ring_[((idx % static_cast<std::ptrdiff_t>(m)) + m) % m].second;
  };
  std::vector<NodeId> targets;
  for (int d = 0; d < vset_half_; ++d) {
    const NodeId succ = pre(static_cast<std::ptrdiff_t>(i) + d);
    const NodeId pred = pre(static_cast<std::ptrdiff_t>(i) - 1 - d);
    for (const NodeId y : {succ, pred}) {
      if (std::find(targets.begin(), targets.end(), y) == targets.end()) {
        targets.push_back(y);
      }
    }
  }
  for (const NodeId y : targets) SetupPair(x, y);

  // Now x goes live on the ring.
  joined_[x] = 1;
  ring_.insert(ring_.begin() + static_cast<std::ptrdiff_t>(i), me);
  const std::size_t k = ring_.size();
  auto at = [&](std::ptrdiff_t idx) {
    const std::size_t mm = ring_.size();
    return ring_[((idx % static_cast<std::ptrdiff_t>(mm)) + mm) % mm]
        .second;
  };
  const std::ptrdiff_t pos = static_cast<std::ptrdiff_t>(i);

  // Displaced pairs: nodes that were within vset range of each other
  // across the insertion point but are now too far apart on the ring.
  if (static_cast<int>(k) > 2 * vset_half_ + 1) {
    for (int a = 1; a <= vset_half_; ++a) {
      for (int b = 1; b <= vset_half_; ++b) {
        if (a + b > vset_half_) {  // ring distance grew past the vset
          TeardownPair(at(pos - a), at(pos + b));
        }
      }
    }
  }
}

void Vrr::SetupPair(NodeId x, NodeId y) {
  const PairKey key = KeyOf(x, y);
  if (pair_paths_.count(key)) return;

  // The setup message routes over the current virtual network; the walk it
  // takes *is* the stored path — VRR never re-optimizes it.
  std::vector<NodeId> walk = GreedyWalk(x, y);
  if (walk.empty() || walk.back() != y) {
    // Rescue (rare; real VRR retries via other pivots): use the physical
    // shortest path so the ring invariant survives.
    ++build_stats_.setup_fallbacks;
    walk = Dijkstra(*g_, x).PathTo(y);
    if (walk.empty()) return;  // physically unreachable: nothing to do
  }
  StorePath(key, StripLoops(walk));
  ++build_stats_.pairs_set_up;
}

std::vector<Vrr::Rec>::const_iterator Vrr::LowerBound(
    const std::vector<Rec>& recs, HashValue h, NodeId end,
    PairKey key) const {
  return std::lower_bound(
      recs.begin(), recs.end(), std::tuple(h, end, key),
      [this](const Rec& r, const std::tuple<HashValue, NodeId, PairKey>& x) {
        return std::tuple(names_.hash(r.end), r.end, r.key) < x;
      });
}

void Vrr::InsertRecs(NodeId v, Rec r, Rec s) {
  std::vector<Rec>& recs = recs_[v];
  const auto pos = [&](const Rec& x) {
    return static_cast<std::size_t>(
        LowerBound(recs, names_.hash(x.end), x.end, x.key) - recs.begin());
  };
  std::size_t i = pos(r);
  std::size_t j = pos(s);
  if (i > j || (i == j && std::tuple(names_.hash(s.end), s.end) <
                              std::tuple(names_.hash(r.end), r.end))) {
    std::swap(r, s);
    std::swap(i, j);
  }
  const std::size_t m = recs.size();
  // Grow by a quarter, not the default doubling: hub tables dominate the
  // peak footprint.
  if (recs.capacity() < m + 2) recs.reserve(m + 2 + m / 4);
  // Old [j, m) shifts by two and old [i, j) by one: each record moves once.
  recs.resize(m + 2);
  std::move_backward(recs.begin() + j, recs.begin() + m, recs.end());
  recs[j + 1] = s;
  std::move_backward(recs.begin() + i, recs.begin() + j, recs.begin() + j + 1);
  recs[i] = r;
}

void Vrr::EraseRecs(NodeId v, PairKey key, NodeId a, NodeId b) {
  std::vector<Rec>& recs = recs_[v];
  const auto pos = [&](NodeId end) {
    return static_cast<std::size_t>(
        LowerBound(recs, names_.hash(end), end, key) - recs.begin());
  };
  std::size_t i = pos(a);
  std::size_t j = pos(b);
  if (i > j) std::swap(i, j);
  assert(i < j && j < recs.size() && recs[i].key == key && recs[j].key == key);
  std::move(recs.begin() + i + 1, recs.begin() + j, recs.begin() + i);
  std::move(recs.begin() + j + 1, recs.end(), recs.begin() + j - 1);
  recs.resize(recs.size() - 2);
}

void Vrr::StorePath(PairKey key, const std::vector<NodeId>& path) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    const NodeId v = path[i];
    InsertRecs(v, {key, path.front(), i == 0 ? kInvalidNode : path[i - 1]},
               {key, path.back(),
                i + 1 == path.size() ? kInvalidNode : path[i + 1]});
  }
  pair_paths_[key] = path;
}

void Vrr::TeardownPair(NodeId a, NodeId b) {
  const PairKey key = KeyOf(a, b);
  const auto it = pair_paths_.find(key);
  if (it == pair_paths_.end()) return;
  const std::vector<NodeId>& path = it->second;
  for (const NodeId v : path) EraseRecs(v, key, path.front(), path.back());
  pair_paths_.erase(it);
  ++build_stats_.pairs_torn_down;
}

std::vector<NodeId> Vrr::GreedyWalk(NodeId start, NodeId target) const {
  const HashValue ht = names_.hash(target);
  const std::size_t hop_limit = 16u * g_->num_nodes() + 64;
  std::vector<NodeId> walk{start};
  NodeId cur = start;
  NodeId committed = kInvalidNode;
  // The pair path being followed toward `committed`; sticking with one
  // path until the commitment improves keeps the walk loop-free even when
  // several stored paths share an endpoint.
  PairKey committed_key = 0;
  bool have_key = false;

  while (cur != target && walk.size() < hop_limit) {
    const std::vector<Rec>& recs = recs_[cur];
    const std::size_t m = recs.size();
    NodeId best = committed;
    auto consider = [&](NodeId cand) {
      if (cand == kInvalidNode || !joined_[cand]) return;
      if (best != kInvalidNode) {
        const std::uint64_t dc = RingDistance(names_.hash(cand), ht);
        const std::uint64_t db = RingDistance(names_.hash(best), ht);
        if (dc > db || (dc == db && cand >= best)) return;
      }
      best = cand;
    };
    // The ring-closest joined endpoint is the first joined record
    // clockwise or counter-clockwise of h(target), or shares its hash.
    // consider() keeps the minimum of a strict total order (ring distance,
    // id tiebreak), so these few records yield the same winner as a scan
    // of the whole table. Only a joining node's own paths end unjoined.
    const std::size_t at =
        static_cast<std::size_t>(LowerBound(recs, ht, 0, 0) - recs.begin());
    auto scan_side = [&](auto pos) {
      for (std::size_t s = 0; s < m; ++s) {
        if (!joined_[recs[pos(s)].end]) continue;
        const HashValue h = names_.hash(recs[pos(s)].end);
        for (; s < m && names_.hash(recs[pos(s)].end) == h; ++s) {
          consider(recs[pos(s)].end);
        }
        return;
      }
    };
    scan_side([&](std::size_t s) { return (at + s) % m; });
    scan_side([&](std::size_t s) { return (at + m - 1 - s) % m; });
    // Physical neighbors double as 1-hop endpoints.
    for (const Neighbor& nb : g_->neighbors(cur)) consider(nb.to);
    if (best == kInvalidNode || best == cur) {
      if (stats_ != nullptr) {
        ++(best == kInvalidNode ? stats_->fail_no_candidate
                                : stats_->fail_stuck);
      }
      return {};
    }
    if (best != committed) {
      committed = best;
      have_key = false;
    }

    NodeId next = kInvalidNode;
    const HashValue hc = names_.hash(committed);
    if (have_key) {
      const auto it = LowerBound(recs, hc, committed, committed_key);
      if (it != recs.end() && it->end == committed &&
          it->key == committed_key) {
        next = it->next_toward_end;
      }
    }
    if (next == kInvalidNode) {
      // The records ending at `committed` are one run of the table, in key
      // order: of several paths toward `committed`, take the first live
      // one, the one with the smallest pair key.
      for (auto it = LowerBound(recs, hc, committed, 0);
           it != recs.end() && it->end == committed; ++it) {
        if (it->next_toward_end != kInvalidNode) {
          next = it->next_toward_end;
          committed_key = it->key;
          have_key = true;
          break;
        }
      }
    }
    if (next == kInvalidNode) {
      // committed must then be a physical neighbor.
      bool adjacent = false;
      for (const Neighbor& nb : g_->neighbors(cur)) {
        if (nb.to == committed) adjacent = true;
      }
      if (!adjacent) {
        if (stats_ != nullptr) ++stats_->fail_dead_entry;
        return {};
      }
      next = committed;
      have_key = false;
    }
    walk.push_back(next);
    cur = next;
  }
  if (cur != target) {
    if (stats_ != nullptr) ++stats_->fail_hop_limit;
    return {};
  }
  return walk;
}

Route Vrr::RoutePacket(NodeId s, NodeId t) const {
  Route r;
  if (s == t) {
    r.path = {s};
    r.length = 0;
    return r;
  }
  std::vector<NodeId> walk = GreedyWalk(s, t);
  if (walk.empty()) return Route{};
  r.path = std::move(walk);
  r.length = PathLength(*g_, r.path);
  return r;
}

std::vector<Vrr::PathEntry> Vrr::EntriesAt(NodeId v) const {
  // Each stored path has two records at v, one per end.
  std::vector<Rec> recs = recs_[v];
  std::sort(recs.begin(), recs.end(), [](const Rec& x, const Rec& y) {
    return std::tie(x.key, x.end) < std::tie(y.key, y.end);
  });
  std::vector<PathEntry> out;
  out.reserve(recs.size() / 2);
  for (std::size_t i = 0; i + 1 < recs.size(); i += 2) {
    const NodeId front = pair_paths_.at(recs[i].key).front();
    const bool i_is_a = recs[i].end == front;
    const Rec& a = i_is_a ? recs[i] : recs[i + 1];
    const Rec& b = i_is_a ? recs[i + 1] : recs[i];
    out.push_back({a.end, b.end, a.next_toward_end, b.next_toward_end});
  }
  return out;
}

StateBreakdown Vrr::State(NodeId v) const {
  StateBreakdown b;
  b.vset_entries = recs_[v].size() / 2;
  return b;
}

}  // namespace disco
