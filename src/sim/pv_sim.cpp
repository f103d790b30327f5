#include "sim/pv_sim.h"

#include <cassert>
#include <functional>
#include <map>
#include <queue>
#include <set>

#include "graph/shortest_path.h"
#include "util/rng.h"

namespace disco {
namespace {

struct DrainEvent {
  double time;
  std::uint64_t seq;
  std::uint32_t arc;  // directed arc index
  std::uint32_t gen;  // arc generation at schedule time (stale if behind)
  bool operator>(const DrainEvent& o) const {
    return time > o.time || (time == o.time && seq > o.seq);
  }
};

struct Arc {
  NodeId from, to;
  Dist weight;
  double delay;
  EdgeId edge;
  bool scheduled = false;
  // Bumped when the arc goes down, so drain events scheduled before the
  // failure are recognized as stale and dropped.
  std::uint32_t gen = 0;
  // Coalesced pending updates (origin -> announced distance from `from`).
  // Ordered, not hashed: a batch drains in origin order, so delivery
  // order — which feeds message totals and the accept/propagate cascade —
  // is a property of the protocol, not of the stdlib's bucket layout.
  std::map<NodeId, Dist> pending;
};

/// One route table entry: the announced distance and the neighbor the
/// announcement arrived from (the withdrawal cascade follows these).
struct Entry {
  Dist dist = 0;
  NodeId from = kInvalidNode;  // == the node itself for its own origin
};

// Per-node protocol state.
struct NodeState {
  // Ordered: the invalidation sweep and the final result fill iterate the
  // table, and the re-announcement order feeds message totals.
  std::map<NodeId, Entry> table;
  // kNdDisco: the bounded non-landmark entries ordered by (dist, id) so the
  // worst one can be evicted when a closer node shows up.
  std::set<std::pair<Dist, NodeId>> vicinity;
};

}  // namespace

PvResult SimulatePathVector(const Graph& g, const PvConfig& config) {
  const NodeId n = g.num_nodes();
  PvResult result;
  result.tables.resize(n);
  result.alive.assign(n, 1);
  if (config.keep_next_hops) result.next_hops.resize(n);

  // Landmarks / cluster radii are needed by the filtered modes.
  LandmarkSet local_landmarks;
  const LandmarkSet* landmarks = config.landmarks;
  if (landmarks == nullptr &&
      (config.mode == PvMode::kNdDisco || config.mode == PvMode::kS4)) {
    local_landmarks = SelectLandmarks(n, config.params);
    landmarks = &local_landmarks;
  }
  std::vector<Dist> cluster_radius;
  if (config.mode == PvMode::kS4) {
    cluster_radius = MultiSourceDijkstra(g, landmarks->landmarks).dist;
  }
  const std::size_t k = config.mode == PvMode::kNdDisco
                            ? VicinitySize(n, config.params.vicinity_factor)
                            : 0;

  const Scenario* scenario = config.scenario;
  const bool dynamic = scenario != nullptr && !scenario->empty();

  // Directed arcs with fixed random delays (asynchronous links). Liveness
  // is derived, never stored: an arc carries traffic iff both endpoints
  // are members and its undirected edge is not failed.
  Rng rng(config.params.seed ^ 0x5ca1ab1edeadbeefULL);
  std::vector<Arc> arcs;
  std::vector<std::vector<std::uint32_t>> out_arcs(n), in_arcs(n);
  for (NodeId v = 0; v < n; ++v) {
    for (const Neighbor& nb : g.neighbors(v)) {
      const std::uint32_t id = static_cast<std::uint32_t>(arcs.size());
      arcs.push_back({v, nb.to, nb.weight, 0.5 + rng.NextDouble(), nb.edge,
                      false, 0, {}});
      out_arcs[v].push_back(id);
      in_arcs[nb.to].push_back(id);
    }
  }
  std::vector<std::uint8_t> node_alive(n, 1);
  std::vector<std::uint8_t> edge_failed(g.num_edges(), 0);
  const auto arc_live = [&](const Arc& a) {
    return node_alive[a.from] && node_alive[a.to] && !edge_failed[a.edge];
  };

  std::vector<NodeState> nodes(n);
  std::priority_queue<DrainEvent, std::vector<DrainEvent>,
                      std::greater<>> queue;
  std::uint64_t seq = 0;
  double now = 0;

  auto schedule_arc = [&](std::uint32_t arc_id) {
    Arc& a = arcs[arc_id];
    if (a.scheduled || a.pending.empty()) return;
    a.scheduled = true;
    queue.push({now + a.delay, ++seq, arc_id, a.gen});
  };

  // Accepts announcement (origin at distance d, learned over arc
  // sender -> v) into v's table; returns true when the entry is new or
  // strictly improved (and must propagate).
  auto accept = [&](NodeId v, NodeId origin, Dist d, NodeId sender) -> bool {
    if (origin == v) return false;
    if (!node_alive[origin]) return false;  // departed names are flushed
    NodeState& st = nodes[v];
    const auto it = st.table.find(origin);
    const bool known = it != st.table.end();
    if (known && d >= it->second.dist) return false;

    const bool is_landmark =
        landmarks != nullptr && landmarks->Contains(origin);
    if (config.mode == PvMode::kS4 && !is_landmark) {
      // Relative epsilon for the boundary case d == d(origin, l_origin)
      // (the radius was summed from the landmark side).
      if (d > cluster_radius[origin] * (1 + 1e-12) + 1e-12) return false;
    }
    if (config.mode == PvMode::kNdDisco && !is_landmark) {
      if (known) {
        st.vicinity.erase({it->second.dist, origin});
        st.vicinity.insert({d, origin});
      } else if (st.vicinity.size() < k) {
        st.vicinity.insert({d, origin});
      } else {
        const auto worst = std::prev(st.vicinity.end());
        if (std::make_pair(d, origin) >= *worst) return false;
        st.table.erase(worst->second);  // evict, no withdrawal needed
        st.vicinity.erase(worst);
        st.vicinity.insert({d, origin});
      }
    }
    st.table[origin] = {d, sender};
    return true;
  };

  auto propagate = [&](NodeId v, NodeId origin, Dist d,
                       NodeId learned_from) {
    for (const std::uint32_t arc_id : out_arcs[v]) {
      Arc& a = arcs[arc_id];
      if (a.to == learned_from) continue;  // split horizon
      if (!arc_live(a)) continue;
      a.pending[origin] = d;
      schedule_arc(arc_id);
    }
  };

  // Removes entry (v, origin) including its vicinity shadow.
  auto erase_entry = [&](NodeId v, NodeId origin) {
    NodeState& st = nodes[v];
    const auto it = st.table.find(origin);
    if (it == st.table.end()) return;
    if (config.mode == PvMode::kNdDisco &&
        (landmarks == nullptr || !landmarks->Contains(origin))) {
      st.vicinity.erase({it->second.dist, origin});
    }
    st.table.erase(it);
  };

  // ---- dynamics machinery (never touched by static runs) ----

  // The withdrawal cascade: an entry is valid iff following its
  // learned-from pointers reaches the origin over live arcs with exactly
  // consistent distances (d_v == d_from + w holds at quiescence; an
  // in-flight improvement breaks it, and the conservative erase is
  // repaired by the triggered updates below). Distances strictly decrease
  // along the chain, so it is cycle-free; the memo makes the sweep linear
  // in total table entries.
  enum : char { kUnknown = 0, kValid, kInvalid, kVisiting };
  std::function<bool(NodeId, NodeId, std::unordered_map<std::uint64_t,
                                                        char>&)>
      entry_valid = [&](NodeId v, NodeId o,
                        std::unordered_map<std::uint64_t, char>& memo)
      -> bool {
    if (!node_alive[v] || !node_alive[o]) return false;
    const auto it = nodes[v].table.find(o);
    if (it == nodes[v].table.end()) return false;
    if (o == v) return true;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(v) << 32) | o;
    const auto m = memo.find(key);
    if (m != memo.end()) return m->second == kValid;
    memo[key] = kVisiting;
    bool ok = false;
    const Entry& e = it->second;
    const NodeId u = e.from;
    if (u != kInvalidNode && u < n && node_alive[u]) {
      const auto uit = nodes[u].table.find(o);
      if (uit != nodes[u].table.end()) {
        // Any live (u -> v) arc whose weight reproduces the stored
        // distance supports the entry (parallel edges may offer several).
        for (const std::uint32_t arc_id : in_arcs[v]) {
          const Arc& a = arcs[arc_id];
          if (a.from != u || !arc_live(a)) continue;
          if (e.dist == uit->second.dist + a.weight &&
              entry_valid(u, o, memo)) {
            ok = true;
            break;
          }
        }
      } else if (config.mode == PvMode::kNdDisco &&
                 (landmarks == nullptr || !landmarks->Contains(o))) {
        // kNdDisco evicts non-landmark origins from its bounded vicinity
        // with no withdrawal — the downstream route stays usable (the
        // announcement carried a concrete path, as in real path vector),
        // so a predecessor that merely evicted must not invalidate it.
        // Entries the cascade erases are still *present* (marked invalid)
        // during this sweep, so absence here can only mean eviction.
        // The neighbor and the link must still be up, though.
        for (const std::uint32_t arc_id : in_arcs[v]) {
          const Arc& a = arcs[arc_id];
          if (a.from == u && arc_live(a)) {
            ok = true;
            break;
          }
        }
      }
    }
    memo[key] = ok ? kValid : kInvalid;
    return ok;
  };

  // One invalidation + triggered-update pass. Erases every invalid entry
  // (charging a withdrawal for each one whose learned-from link was still
  // up — those had to be told, the rest noticed locally), then has every
  // neighbor still holding a surviving route re-announce it to the nodes
  // that just lost theirs. Returns the number of entries erased.
  auto invalidate_and_reteach = [&]() -> std::size_t {
    std::unordered_map<std::uint64_t, char> memo;
    std::vector<std::pair<NodeId, NodeId>> erased;  // (node, origin)
    for (NodeId v = 0; v < n; ++v) {
      if (!node_alive[v]) continue;
      for (const auto& [o, e] : nodes[v].table) {
        if (entry_valid(v, o, memo)) continue;
        erased.push_back({v, o});
        const NodeId u = e.from;
        bool inherited = false;
        if (u != kInvalidNode && u != v && u < n && node_alive[u]) {
          for (const std::uint32_t arc_id : in_arcs[v]) {
            const Arc& a = arcs[arc_id];
            if (a.from == u && arc_live(a)) {
              inherited = true;
              break;
            }
          }
        }
        if (inherited) {
          ++result.total_withdrawals;
          ++result.total_messages;
        }
      }
    }
    for (const auto& [v, o] : erased) erase_entry(v, o);
    for (const auto& [v, o] : erased) {
      if (!node_alive[v]) continue;
      for (const std::uint32_t arc_id : in_arcs[v]) {
        Arc& a = arcs[arc_id];
        if (!arc_live(a)) continue;
        const auto uit = nodes[a.from].table.find(o);
        if (uit == nodes[a.from].table.end()) continue;
        a.pending[o] = uit->second.dist;
        schedule_arc(arc_id);
      }
    }
    return erased.size();
  };

  auto record_trace_point = [&]() {
    PvTracePoint pt;
    pt.time = now;
    pt.messages = result.total_messages;
    pt.withdrawals = result.total_withdrawals;
    for (NodeId v = 0; v < n; ++v) {
      if (node_alive[v]) pt.table_entries += nodes[v].table.size();
    }
    result.trace.push_back(pt);
  };

  auto apply_event = [&](const ScenarioEvent& ev) {
    // 1. Membership and link flips. Dead arcs drop their queued batches
    //    (messages in flight on a failed link are lost) and bump their
    //    generation so already-scheduled drains are recognized as stale.
    for (const NodeId v : ev.node_leaves) {
      node_alive[v] = 0;
      nodes[v].table.clear();
      nodes[v].vicinity.clear();
    }
    for (const EdgeId e : ev.link_fails) edge_failed[e] = 1;
    std::vector<std::uint32_t> touched;
    for (const NodeId v : ev.node_leaves) {
      touched.insert(touched.end(), out_arcs[v].begin(), out_arcs[v].end());
      touched.insert(touched.end(), in_arcs[v].begin(), in_arcs[v].end());
    }
    for (const NodeId v : ev.node_joins) {
      node_alive[v] = 1;
      nodes[v].table[v] = {0, v};
    }
    for (const EdgeId e : ev.link_heals) edge_failed[e] = 0;
    for (const EdgeId e : ev.link_fails) {
      for (const std::uint32_t arc_id : in_arcs[g.edge(e).a]) {
        if (arcs[arc_id].edge == e) touched.push_back(arc_id);
      }
      for (const std::uint32_t arc_id : in_arcs[g.edge(e).b]) {
        if (arcs[arc_id].edge == e) touched.push_back(arc_id);
      }
    }
    for (const std::uint32_t arc_id : touched) {
      Arc& a = arcs[arc_id];
      if (!arc_live(a)) {
        a.pending.clear();
        a.scheduled = false;
        ++a.gen;
      }
    }

    // 2. Withdrawal cascade for everything the failures orphaned, plus
    //    re-announcements from surviving neighbors.
    invalidate_and_reteach();

    // 3. Newly-live links exchange full tables (session up), which also
    //    carries a rejoined node's self-announcement into the network.
    std::vector<std::uint32_t> fresh;
    for (const NodeId v : ev.node_joins) {
      for (const std::uint32_t id : out_arcs[v]) fresh.push_back(id);
      for (const std::uint32_t id : in_arcs[v]) fresh.push_back(id);
    }
    for (const EdgeId e : ev.link_heals) {
      for (const std::uint32_t arc_id : in_arcs[g.edge(e).a]) {
        if (arcs[arc_id].edge == e) fresh.push_back(arc_id);
      }
      for (const std::uint32_t arc_id : in_arcs[g.edge(e).b]) {
        if (arcs[arc_id].edge == e) fresh.push_back(arc_id);
      }
    }
    for (const std::uint32_t arc_id : fresh) {
      Arc& a = arcs[arc_id];
      if (!arc_live(a)) continue;
      for (const auto& [o, e] : nodes[a.from].table) a.pending[o] = e.dist;
      schedule_arc(arc_id);
    }
  };

  // ---- the event loop ----

  // t = 0: every node originates its own announcement.
  for (NodeId v = 0; v < n; ++v) {
    nodes[v].table[v] = {0, v};
    propagate(v, v, 0, kInvalidNode);
  }

  const std::vector<ScenarioEvent>* script =
      dynamic ? &scenario->events() : nullptr;
  std::size_t next_event = 0;

  // Pops and delivers one drain event (both loops below share this so the
  // static and dynamic quiescence paths can never diverge).
  auto drain_one = [&]() {
    const DrainEvent ev = queue.top();
    queue.pop();
    Arc& a = arcs[ev.arc];
    if (ev.gen != a.gen) return;  // scheduled before the link failed
    now = ev.time;
    a.scheduled = false;
    // Take the batch; deliveries may enqueue more on this very arc.
    std::map<NodeId, Dist> batch;
    batch.swap(a.pending);
    for (const auto& [origin, dist_at_sender] : batch) {
      ++result.total_messages;
      const Dist d = dist_at_sender + a.weight;
      if (accept(a.to, origin, d, a.from)) {
        result.convergence_time = now;
        propagate(a.to, origin, d, a.from);
      }
    }
    schedule_arc(ev.arc);  // re-arm if deliveries re-filled it
  };

  while (true) {
    // Scripted events fire at their scheduled instant, ahead of any
    // delivery due at the same time.
    if (script != nullptr && next_event < script->size() &&
        (queue.empty() ||
         (*script)[next_event].time <= queue.top().time)) {
      now = (*script)[next_event].time;
      apply_event((*script)[next_event]);
      record_trace_point();
      ++next_event;
      continue;
    }
    if (queue.empty()) break;
    drain_one();
  }

  if (dynamic) {
    // Announcements in flight across a failure may have landed after the
    // event's invalidation sweep; revalidate until a fixed point so no
    // stale entry survives quiescence.
    while (invalidate_and_reteach() > 0) {
      while (!queue.empty()) drain_one();
    }
    record_trace_point();
  }

  result.messages_per_node =
      n == 0 ? 0
             : static_cast<double>(result.total_messages) /
                   static_cast<double>(n);
  for (NodeId v = 0; v < n; ++v) {
    result.alive[v] = node_alive[v];
    for (const auto& [o, e] : nodes[v].table) {
      result.tables[v][o] = e.dist;
      if (config.keep_next_hops) result.next_hops[v][o] = e.from;
    }
  }
  return result;
}

}  // namespace disco
