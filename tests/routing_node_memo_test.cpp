// NodeMemo, the memo behind every cache of derived route state: racing
// misses settle on one instance, Prewarm's missing-only / capacity-cut /
// in-order contract, LRU eviction of S4 balls, and SPF routes that do not
// depend on how many destination trees stay resident. VicinityCache's own
// tests cover hit counting and single-threaded LRU order.
#include "routing/node_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "baselines/s4.h"
#include "baselines/spf.h"
#include "graph/generators.h"
#include "routing/params.h"

namespace disco {
namespace {

std::shared_ptr<const NodeId> Boxed(NodeId v) {
  return std::make_shared<const NodeId>(v);
}

TEST(NodeMemo, ConcurrentGetsOnOneKeyShareOneInstance) {
  NodeMemo<NodeId> memo(8);
  std::atomic<int> ready{0};
  std::vector<std::shared_ptr<const NodeId>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] {
      ++ready;
      while (ready.load() < 4) std::this_thread::yield();
      got[i] = memo.Get(42, [](NodeId v) {
        // Slow enough that the threads miss together and race to insert.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return Boxed(v);
      });
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& p : got) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p.get(), got[0].get());
  }
  EXPECT_EQ(*got[0], 42u);
  EXPECT_EQ(memo.computed_count(), 1u);
}

TEST(NodeMemo, PrewarmComputesOnlyMissingNodesUpToCapacityInOrder) {
  NodeMemo<NodeId> memo(3);
  memo.Get(5, Boxed);
  std::mutex mu;
  std::vector<NodeId> computed;
  memo.Prewarm({7, 5, 2, 9, 4}, [&](NodeId v) {
    std::lock_guard<std::mutex> lock(mu);
    computed.push_back(v);
    return Boxed(v);
  });
  // 5 was resident; of the missing 7, 2, 9, 4 the first three fit.
  std::sort(computed.begin(), computed.end());
  EXPECT_EQ(computed, (std::vector<NodeId>{2, 7, 9}));
  EXPECT_EQ(memo.computed_count(), 4u);

  // Inserted in the given order, so 7 is now least recent: a new node
  // evicts it and leaves 2 and 9 resident.
  memo.Get(11, Boxed);
  EXPECT_EQ(memo.computed_count(), 5u);
  memo.Get(9, Boxed);
  memo.Get(2, Boxed);
  EXPECT_EQ(memo.computed_count(), 5u);
  memo.Get(7, Boxed);
  EXPECT_EQ(memo.computed_count(), 6u);
}

TEST(NodeMemo, S4BallsKeepRecentlyUsedPastCapacity) {
  // S4 keeps 512 balls. Touching 600 other destinations while re-using
  // one must keep that ball resident, not drop every ball when full.
  const Graph g = ConnectedGnm(1024, 4096, 7);
  S4 s4(g, Params{});
  const auto held = s4.Ball(0);
  for (NodeId t = 1; t <= 600; ++t) {
    s4.Ball(t);
    EXPECT_EQ(s4.Ball(0).get(), held.get()) << "after ball " << t;
  }
}

TEST(NodeMemo, SpfRoutesDoNotDependOnTreeCapacity) {
  const Graph g = ConnectedGnm(64, 256, 3);
  ShortestPathRouting thrashing(g, 1);
  ShortestPathRouting resident(g, g.num_nodes());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      const Route a = thrashing.RoutePacket(s, t);
      const Route b = resident.RoutePacket(s, t);
      EXPECT_EQ(a.path, b.path) << s << " -> " << t;
      EXPECT_EQ(a.length, b.length) << s << " -> " << t;
    }
  }
}

}  // namespace
}  // namespace disco
