#include "exec/task_scheduler.h"

#include "obs/log.h"
#include "obs/metrics.h"

namespace disco::exec {

namespace {

// Scheduling decision counters, registered once and shared by every
// TaskScheduler instance. These surface
// in the driver's "[metrics] exec tasks:" dump line and its Prometheus
// exposition.
struct ExecMetrics {
  obs::Counter& dispatched;
  obs::Counter& retries;
  obs::Counter& slot_deaths;

  ExecMetrics()
      : dispatched(obs::Global().RegisterCounter(
            "disco_exec_tasks_total", "Executor scheduling decisions",
            "exec tasks", "dispatched", {{"event", "dispatched"}})),
        retries(obs::Global().RegisterCounter(
            "disco_exec_tasks_total", "Executor scheduling decisions",
            "exec tasks", "retries", {{"event", "retried"}})),
        slot_deaths(obs::Global().RegisterCounter(
            "disco_exec_tasks_total", "Executor scheduling decisions",
            "exec tasks", "slot_deaths", {{"event", "slot_death"}})) {}
};

ExecMetrics& Metrics() {
  static ExecMetrics* m = new ExecMetrics;
  return *m;
}

}  // namespace

TaskScheduler::TaskScheduler(std::size_t count,
                             std::vector<std::string>* results)
    : count_(count), results_(results), tasks_(count) {
  results_->assign(count, std::string());
  for (std::size_t i = 0; i < count; ++i) pending_.push_back(i);
}

std::size_t TaskScheduler::AddSlot() {
  slots_.push_back(kNoTask);
  return slots_.size() - 1;
}

std::size_t TaskScheduler::NextTask(std::size_t slot) {
  if (pending_.empty()) return kNoTask;
  const std::size_t task = pending_.front();
  pending_.pop_front();
  slots_[slot] = task;
  Metrics().dispatched.Inc();
  obs::Log(obs::LogLevel::kDebug, "[exec] slot %zu <- task %zu", slot, task);
  return task;
}

bool TaskScheduler::AttemptFailed(std::size_t task, const std::string& why) {
  if (++tasks_[task].failures > kMaxRetries) {
    return Fail(task, true,
                "task " + std::to_string(task) + " failed after " +
                    std::to_string(tasks_[task].failures) +
                    " attempt(s): " + why);
  }
  pending_.push_back(task);
  Metrics().retries.Inc();
  obs::Log(obs::LogLevel::kInfo,
           "[exec] retrying task %zu (attempt %d): %s", task,
           tasks_[task].failures + 1, why.c_str());
  return true;
}

bool TaskScheduler::Fail(std::size_t task, bool task_known,
                         std::string message) {
  error_ = std::move(message);
  failed_task_ = task;
  task_known_ = task_known;
  return false;
}

bool TaskScheduler::Holds(std::size_t slot, std::size_t index,
                          const char* frame) {
  const std::size_t held = slots_[slot];
  if (index < count_ && index == held) return true;
  // A frame for a task this slot was never handed is stream corruption
  // (duplicated, reordered, or forged): crediting it on trust would mark
  // another slot's task done, or requeue a task that is still running.
  return Fail(0, false,
              std::string("worker sent ") + frame + " for task " +
                  std::to_string(index) +
                  (held == kNoTask ? " while idle"
                                   : " while running task " +
                                         std::to_string(held)));
}

bool TaskScheduler::OnResult(std::size_t slot, std::size_t index,
                             std::string payload) {
  if (!Holds(slot, index, "a frame")) return false;
  slots_[slot] = kNoTask;
  tasks_[index].done = true;
  (*results_)[index] = std::move(payload);
  ++done_count_;
  return true;
}

bool TaskScheduler::OnTaskError(std::size_t slot, std::size_t index,
                                const std::string& why) {
  if (!Holds(slot, index, "an error frame")) return false;
  slots_[slot] = kNoTask;
  return AttemptFailed(index, why);
}

bool TaskScheduler::OnProtocolError(std::size_t slot,
                                    const std::string& message) {
  (void)slot;
  return Fail(0, false, "worker reported a protocol error: " + message);
}

bool TaskScheduler::OnSlotDeath(std::size_t slot, const std::string& why) {
  Metrics().slot_deaths.Inc();
  obs::Log(obs::LogLevel::kInfo, "[exec] slot %zu died: %s", slot,
           why.c_str());
  const std::size_t task = slots_[slot];
  slots_[slot] = kNoTask;
  if (task == kNoTask) return true;
  return AttemptFailed(task, why);
}

std::size_t TaskScheduler::FirstUnfinished() const {
  std::size_t i = 0;
  while (i < count_ && tasks_[i].done) ++i;
  return i;
}

}  // namespace disco::exec
