#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/spf.h"
#include "graph/generators.h"
#include "runtime/parallel_for.h"
#include "runtime/rng_stream.h"
#include "routing/landmarks.h"
#include "sim/metrics.h"

namespace disco::runtime {
namespace {

std::size_t WidePoolSize() {
  const unsigned hw = std::thread::hardware_concurrency();
  // Even on a single-core machine, exercise real worker threads so the
  // pool-size-invariance claims are tested under actual interleaving.
  return std::max<std::size_t>(4, hw == 0 ? 1 : hw);
}

TEST(ThreadPool, ExecutesEveryTaskExactlyOnce) {
  ThreadPool pool(WidePoolSize());
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0);

  std::mutex mu;
  std::condition_variable cv;
  std::size_t finished = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.Submit([&, i] {
      runs[i].fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      ++finished;
      cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return finished == kTasks; }));
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1);
}

TEST(ThreadPool, NoWorkersRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1u);
  int ran = 0;
  pool.Submit([&] { ++ran; });  // synchronous when there are no workers
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, DefaultThreadCountRejectsOverflowingEnv) {
  // DISCO_THREADS parses like --threads= (a positive int): a value past
  // INT_MAX falls back to the hardware default instead of asking the pool
  // for ~10^11 workers.
  const char* saved = std::getenv("DISCO_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const bool was_set = saved != nullptr;
  ::unsetenv("DISCO_THREADS");
  const std::size_t hardware = DefaultThreadCount();
  ::setenv("DISCO_THREADS", "99999999999", 1);
  EXPECT_EQ(DefaultThreadCount(), hardware);
  ::setenv("DISCO_THREADS", "-1", 1);
  EXPECT_EQ(DefaultThreadCount(), hardware);
  ::setenv("DISCO_THREADS", "3", 1);
  EXPECT_EQ(DefaultThreadCount(), 3u);
  if (was_set) {
    ::setenv("DISCO_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("DISCO_THREADS");
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(WidePoolSize());
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(
      0, kN,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      &pool, 7);  // deliberately ragged grain
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, TasksVariantCoversEveryTask) {
  ThreadPool pool(WidePoolSize());
  constexpr std::size_t kTasks = 257;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  ParallelForTasks(kTasks, [&](std::size_t t) { hits[t].fetch_add(1); },
                   &pool);
  for (std::size_t t = 0; t < kTasks; ++t) EXPECT_EQ(hits[t].load(), 1);
}

TEST(ParallelFor, NestedSubmissionDoesNotDeadlock) {
  // Saturate the pool with outer tasks, each opening an inner parallel
  // section over the same pool. The submitting thread drains its own loop,
  // so this must finish even with every worker busy.
  ThreadPool pool(WidePoolSize());
  const std::size_t outer = 2 * pool.parallelism();
  std::atomic<std::size_t> total{0};
  ParallelForTasks(
      outer,
      [&](std::size_t) {
        ParallelFor(
            0, 1000,
            [&](std::size_t lo, std::size_t hi) {
              total.fetch_add(hi - lo);
            },
            &pool);
      },
      &pool);
  EXPECT_EQ(total.load(), outer * 1000);
}

TEST(ParallelFor, ResultsInvariantAcrossPoolSizes) {
  // The same seeded computation through pool sizes 1 and
  // hardware_concurrency (at least 4) must agree bit for bit.
  const Graph g = ConnectedGnm(256, 1024, 11);
  Params params;
  params.seed = 77;

  ThreadPool::ResetShared(1);
  const LandmarkSet serial_landmarks = SelectLandmarks(256, params);
  ShortestPathRouting spf_serial(g);
  std::vector<StretchSample> serial_details;
  const auto serial_stretch = SampleStretch(
      SamplePairs(g, 64, 5),
      [&](NodeId s, NodeId t) { return spf_serial.RoutePacket(s, t); },
      &serial_details);

  ThreadPool::ResetShared(WidePoolSize());
  const LandmarkSet wide_landmarks = SelectLandmarks(256, params);
  ShortestPathRouting spf_wide(g);
  std::vector<StretchSample> wide_details;
  const auto wide_stretch = SampleStretch(
      SamplePairs(g, 64, 5),
      [&](NodeId s, NodeId t) { return spf_wide.RoutePacket(s, t); },
      &wide_details);
  ThreadPool::ResetShared(1);

  EXPECT_EQ(serial_landmarks.landmarks, wide_landmarks.landmarks);
  EXPECT_EQ(serial_stretch, wide_stretch);
  ASSERT_EQ(serial_details.size(), wide_details.size());
  for (std::size_t i = 0; i < serial_details.size(); ++i) {
    EXPECT_EQ(serial_details[i].s, wide_details[i].s);
    EXPECT_EQ(serial_details[i].t, wide_details[i].t);
    EXPECT_EQ(serial_details[i].shortest, wide_details[i].shortest);
  }
}

TEST(TaskRng, StreamsDependOnlyOnSeedAndIndex) {
  EXPECT_EQ(TaskRng(42, 7).Next(), TaskRng(42, 7).Next());
  EXPECT_NE(TaskRng(42, 7).Next(), TaskRng(42, 8).Next());
  EXPECT_NE(TaskRng(42, 7).Next(), TaskRng(43, 7).Next());
}

}  // namespace
}  // namespace disco::runtime
