// NodeMemo<T>: the one bounded, thread-safe memo behind every cache of
// derived per-node route state in the static simulator — vicinities
// (VicinityCache), landmark trees (LandmarkTreeCache), SPF destination
// trees (ShortestPathRouting) and S4 destination balls (S4::Ball).
//
// Values are shared_ptrs because callers routinely hold several at once
// (source + every node along a route) while the memo keeps evicting, least
// recently used first. The lock covers only map bookkeeping: a miss
// computes unlocked, so concurrent misses on distinct nodes run in
// parallel, and a racing duplicate is harmless — the first insert wins.
// Every value is a deterministic function of its node, so which duplicate
// wins never reaches output.
#pragma once

#include <algorithm>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "runtime/parallel_for.h"

namespace disco {

template <typename T>
class NodeMemo {
 public:
  using Ptr = std::shared_ptr<const T>;

  /// Keeps at most `capacity` (at least 1) values resident.
  explicit NodeMemo(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)) {}

  std::size_t capacity() const { return capacity_; }

  /// The value of `v`, computed as `compute(v)` on a miss. Safe to call
  /// concurrently.
  template <typename Compute>
  Ptr Get(NodeId v, const Compute& compute) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (Ptr hit = FindLocked(v)) return hit;
    }
    return Insert(v, compute(v));
  }

  /// Computes the values of the `nodes` not yet resident — at most
  /// `capacity` of them, taken in the given order — in parallel over the
  /// runtime pool, then inserts them in that order.
  template <typename Compute>
  void Prewarm(const std::vector<NodeId>& nodes, const Compute& compute) {
    std::vector<NodeId> missing;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const NodeId v : nodes) {
        if (entries_.find(v) == entries_.end()) missing.push_back(v);
      }
    }
    if (missing.size() > capacity_) missing.resize(capacity_);
    std::vector<Ptr> built(missing.size());
    runtime::ParallelForTasks(missing.size(), [&](std::size_t i) {
      built[i] = compute(missing[i]);
    });
    for (std::size_t i = 0; i < missing.size(); ++i) {
      Insert(missing[i], std::move(built[i]));
    }
  }

  /// Number of values inserted so far (evicted ones included).
  std::size_t computed_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return computed_;
  }

 private:
  Ptr FindLocked(NodeId v) {
    const auto it = entries_.find(v);
    if (it == entries_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.value;
  }

  Ptr Insert(NodeId v, Ptr value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (Ptr hit = FindLocked(v)) return hit;
    ++computed_;
    lru_.push_front(v);
    entries_.emplace(v, Entry{value, lru_.begin()});
    if (entries_.size() > capacity_) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
    return value;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::size_t computed_ = 0;
  std::list<NodeId> lru_;  // front = most recent
  struct Entry {
    Ptr value;
    typename std::list<NodeId>::iterator lru_pos;
  };
  std::unordered_map<NodeId, Entry> entries_;
};

}  // namespace disco
