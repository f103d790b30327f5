#include "exec/executor.h"

// disco-lint: allow-file(relaxed-atomic): g_next_job is a monotone Run-call
// counter advanced identically on driver and worker sides; its value is a
// pure function of how many Run calls happened, not of thread timing.

#include <atomic>
#include <mutex>

#include "exec/exec_internal.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"

namespace disco::exec {
namespace {

// Process-wide Run-call numbering and worker-mode state. Workers and
// drivers share one binary, so both sides advance this counter through the
// same deterministic sequence of Run calls.
std::atomic<std::size_t> g_next_job{0};
bool g_worker_mode = false;
std::size_t g_worker_job = 0;

// In-process backend: ParallelForTasks over the runtime pool. Nothing is
// retried — a task failure here is an exception, which is deterministic,
// so re-running it could only fail again.
class ThreadExecutor : public Executor {
 public:
  explicit ThreadExecutor(const ExecOptions& opts) : pool_(opts.pool) {}

  RunResult Run(std::size_t count, const TaskFn& fn,
                std::vector<std::string>* results) override {
    internal::ClaimJobNumber();
    DISCO_TRACE_SPAN("exec.run.threads");
    return internal::RunInProcess(count, fn, results, pool_);
  }

 private:
  runtime::ThreadPool* pool_;
};

}  // namespace

namespace internal {

std::size_t ClaimJobNumber() {
  return g_next_job.fetch_add(1, std::memory_order_relaxed);
}

std::size_t WorkerJob() { return g_worker_job; }

RunResult RunInProcess(std::size_t count, const TaskFn& fn,
                       std::vector<std::string>* results,
                       runtime::ThreadPool* pool) {
  results->assign(count, std::string());
  std::mutex mu;
  RunResult status;
  runtime::ParallelForTasks(
      count,
      [&](std::size_t i) {
        obs::Span task_span("exec.task");
        try {
          (*results)[i] = fn(i);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          if (status.ok || i < status.failed_task) {
            status = {false, i, true,
                      "task " + std::to_string(i) + " failed: " + e.what()};
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (status.ok || i < status.failed_task) {
            status = {false, i, true,
                      "task " + std::to_string(i) +
                          " failed with a non-std exception"};
          }
        }
      },
      pool);
  return status;
}

}  // namespace internal

bool ParseBackend(const std::string& name, Backend* out) {
  if (name == "threads") {
    *out = Backend::kThreads;
    return true;
  }
  if (name == "procs") {
    *out = Backend::kProcs;
    return true;
  }
  return false;
}

void EnterWorkerMode(std::size_t job) {
  g_worker_mode = true;
  g_worker_job = job;
  // If this process also parses --trace= (workers re-parse the driver's
  // argv), its spans go home in its kObs goodbye and it writes no trace
  // file. Order-independent with ConfigureTracing.
  obs::MarkTraceWorker();
}

bool InWorkerMode() { return g_worker_mode; }

std::string WorkerFlag(std::size_t job) {
  return "--worker=" + std::to_string(job);
}

void ResetJobNumberingForTest() {
  g_next_job.store(0, std::memory_order_relaxed);
  g_worker_mode = false;
  g_worker_job = 0;
}

std::unique_ptr<Executor> MakeExecutor(const ExecOptions& opts) {
  // A worker process serves (or locally evaluates) whatever Run calls it
  // reaches, regardless of the backend the flags name — the flags are the
  // parent's argv, echoed back at us.
  if (g_worker_mode) return MakeWorkerServer(opts);
  if (opts.backend == Backend::kProcs) return MakeProcessExecutor(opts);
  return std::make_unique<ThreadExecutor>(opts);
}

}  // namespace disco::exec
