#include "runtime/thread_pool.h"

#include <memory>

#include "util/parse_int.h"

namespace disco::runtime {

std::size_t DefaultThreadCount() {
  // Garbage ("4x", ""), non-positive and out-of-int values (the --threads=
  // flag's type) fall through to the hardware default.
  if (const int v = EnvIntOr("DISCO_THREADS", 0, 1); v > 0) {
    return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t parallelism) {
  const std::size_t workers = parallelism > 1 ? parallelism - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {
std::mutex& SharedMutex() {
  static std::mutex mu;
  return mu;
}
std::unique_ptr<ThreadPool>& SharedSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
}  // namespace

ThreadPool& ThreadPool::Shared() {
  // Locked: the first call can come from concurrent threads (e.g. trials
  // running on a caller-provided pool that each reach for the shared one).
  std::lock_guard<std::mutex> lock(SharedMutex());
  auto& slot = SharedSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(DefaultThreadCount());
  return *slot;
}

void ThreadPool::ResetShared(std::size_t parallelism) {
  std::lock_guard<std::mutex> lock(SharedMutex());
  SharedSlot() = std::make_unique<ThreadPool>(parallelism);
}

}  // namespace disco::runtime
