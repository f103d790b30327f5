// Multi-process executor backend: a pool of worker subprocesses created by
// re-invoking this binary with "--worker=<job>" appended to its own argv.
//
// Driver side (ProcessExecutor): numbers the Run call and hands the
// worker argv to the coordinator loop (exec_internal.h, Coordinate()),
// which forks each worker on one end of a socketpair(AF_UNIX,
// SOCK_STREAM), SIGKILLs it on abort and never respawns a lost one.
//
// Worker side (WorkerServer): claims Run-call job numbers like any other
// backend; calls before the assigned job evaluate in-process (their
// results may feed the assigned job's task function), the assigned job
// reads kTask frames (exec/wire.h binary framing) from stdin, answers
// with kResult/kTaskError frames on kResultFd — stdin and kResultFd are
// the same channel socket — and exits on EOF, after shipping one kObs
// frame (its own trace as JSON + metrics text) so the driver can
// aggregate per-process observability; a worker never writes a trace
// file. A request it cannot honor — malformed frame, out-of-range
// index — is answered with a kProtocolError frame, which the driver
// treats as a run-level failure: a protocol error is attributable to no
// task, so it must never charge a retry to an innocent one.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "exec/exec_internal.h"
#include "exec/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace disco::exec {
namespace {

// ------------------------------------------------------------- worker side

bool WriteFrame(int fd, FrameType type, std::uint64_t index,
                const std::string& payload) {
  const std::string frame =
      EncodeFrame(static_cast<char>(type), index, payload);
  return WriteAll(fd, frame.data(), frame.size());
}

// Answers one request frame on kResultFd.
void ServeTask(const Frame& f, std::size_t count, const TaskFn& fn) {
  if (f.type != static_cast<char>(FrameType::kTask) || f.index >= count) {
    // A bad request names no runnable task. Answering with a task error at
    // the garbage index would either kill the run as "out-of-range task"
    // or charge a retry to whatever innocent task the index happens to
    // alias — so it gets its own frame type the driver maps to a
    // run-level error.
    WriteFrame(kResultFd, FrameType::kProtocolError, 0,
               std::string("bad task request: type '") + f.type + "' index " +
                   std::to_string(f.index) + " (count " +
                   std::to_string(count) + ")");
    return;
  }
  std::string payload;
  FrameType type = FrameType::kResult;
  obs::Span task_span("exec.task");
  try {
    payload = fn(static_cast<std::size_t>(f.index));
  } catch (const std::exception& e) {
    type = FrameType::kTaskError;
    payload = e.what();
  } catch (...) {
    type = FrameType::kTaskError;
    payload = "non-std exception";
  }
  if (!WriteFrame(kResultFd, type, f.index, payload)) {
    std::exit(1);  // driver went away
  }
}

[[noreturn]] void ServeTasks(std::size_t count, const TaskFn& fn) {
  FrameBuffer frames;
  std::string parse_error;
  Pump p;
  while ((p = PumpFrames(0, &frames, &parse_error, [&](const Frame& f) {
            ServeTask(f, count, fn);
            return true;
          })) == Pump::kOpen) {
  }
  if (p == Pump::kMalformed) {
    // The request stream is unusable from here on: report and exit.
    WriteFrame(kResultFd, FrameType::kProtocolError, 0,
               "malformed task frame: " + parse_error);
    std::exit(1);
  }
  // EOF, the driver's goodbye (or a hard close): ship observability home
  // before exiting. The trace is empty when tracing is off; metrics always
  // travel so the driver's [metrics] dump aggregates every worker's
  // counters. A driver that is done reading may have closed the channel
  // already — a failed write here is fine.
  WriteFrame(kResultFd, FrameType::kObs,
             static_cast<std::uint64_t>(::getpid()),
             EncodeObsPayload(obs::TakeWorkerTrace(),
                              obs::Global().PrometheusText()));
  std::exit(0);
}

class WorkerServer : public Executor {
 public:
  explicit WorkerServer(const ExecOptions& opts) : pool_(opts.pool) {}

  RunResult Run(std::size_t count, const TaskFn& fn,
                std::vector<std::string>* results) override {
    const std::size_t job = internal::ClaimJobNumber();
    if (job != internal::WorkerJob()) {
      // A fan-out preceding the one we were spawned for: evaluate it
      // locally so state derived from its results exists when the
      // assigned job's task function is built.
      return internal::RunInProcess(count, fn, results, pool_);
    }
    ServeTasks(count, fn);
  }

 private:
  runtime::ThreadPool* pool_;
};

// ------------------------------------------------------------- driver side

class ProcessExecutor : public Executor {
 public:
  explicit ProcessExecutor(const ExecOptions& opts)
      : worker_argv_(opts.worker_argv),
        num_workers_(opts.workers != 0 ? opts.workers
                                       : runtime::DefaultThreadCount()) {}

  RunResult Run(std::size_t count, const TaskFn& fn,
                std::vector<std::string>* results) override {
    (void)fn;  // tasks are evaluated in worker processes, never here
    const std::size_t job = internal::ClaimJobNumber();
    if (count == 0) {
      results->clear();
      return RunResult{};
    }
    DISCO_TRACE_SPAN("exec.run.procs");
    std::vector<std::string> argv = worker_argv_;
    argv.push_back(WorkerFlag(job));
    return Coordinate(argv, std::min(num_workers_, count), count, results);
  }

 private:
  const std::vector<std::string> worker_argv_;
  const std::size_t num_workers_;
};

}  // namespace

std::unique_ptr<Executor> MakeProcessExecutor(const ExecOptions& opts) {
  return std::make_unique<ProcessExecutor>(opts);
}

std::unique_ptr<Executor> MakeWorkerServer(const ExecOptions& opts) {
  return std::make_unique<WorkerServer>(opts);
}

}  // namespace disco::exec
