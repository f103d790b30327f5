// Multi-process executor backend: a pool of worker subprocesses created by
// re-invoking this binary with "--worker=<job>" appended to its own argv.
//
// Driver side (ProcessExecutor): the pipe transport of the shared
// coordinator (exec_internal.h, Coordinate()). Each slot is a worker
// forked by SpawnWorker; goodbye closes its stdin, abort SIGKILLs it, and
// a lost worker is never respawned.
//
// Worker side (WorkerServer): claims Run-call job numbers like any other
// backend; calls before the assigned job evaluate in-process (their
// results may feed the assigned job's task function), the assigned job
// reads kTask frames (exec/wire.h binary framing) from stdin, answers
// with kResult/kTaskError frames on kResultFd, and exits on stdin EOF —
// after shipping one kObs frame (trace sidecar path + metrics text) so
// the driver can aggregate per-process observability. A request it cannot
// honor — malformed frame, out-of-range index — is answered with a
// kProtocolError frame, which the driver treats as a run-level failure: a
// protocol error is attributable to no task, so it must never charge a
// retry to an innocent one. The same worker serves a net-backend daemon.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
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
  // Stdin EOF, the driver's goodbye: ship observability home before
  // exiting. The trace sidecar path is empty when tracing is off; metrics
  // always travel so the driver's [metrics] dump aggregates every worker's
  // counters. A driver that is done reading may have closed the result
  // stream already — a failed write here is fine.
  const std::string sidecar = obs::FlushTrace();
  WriteFrame(kResultFd, FrameType::kObs,
             static_cast<std::uint64_t>(::getpid()),
             EncodeObsPayload(sidecar, obs::Global().PrometheusText()));
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

// A slot is one worker subprocess. A dead worker is not respawned, so
// capacity degrades gracefully until none remain.
class ProcsTransport final : public Transport {
 public:
  // Splits the machine between workers: each gets an equal slice of the
  // default thread budget unless the caller pinned --threads explicitly
  // (an explicit --threads in argv overrides the env in the worker's own
  // flag parsing).
  ProcsTransport(std::vector<std::string> argv, std::size_t slots)
      : argv_(std::move(argv)),
        threads_("DISCO_THREADS=" +
                 std::to_string(std::max<std::size_t>(
                     1, runtime::DefaultThreadCount() / slots))) {}

  std::string Describe(std::size_t slot) const override {
    return "worker " + std::to_string(slot);
  }
  bool Open(std::size_t, WorkerIo* io, std::string* why) override {
    return SpawnWorker(argv_, {threads_}, io, why);
  }
  void Abort(WorkerIo* io) override { KillWorker(io); }
  void Goodbye(WorkerIo* io) override {
    ::close(io->task_fd);  // stdin EOF
    io->task_fd = -1;
  }

 private:
  const std::vector<std::string> argv_;
  const std::string threads_;
};

class ProcessExecutor : public Executor {
 public:
  explicit ProcessExecutor(const ExecOptions& opts)
      : worker_argv_(opts.worker_argv),
        num_workers_(opts.workers != 0 ? opts.workers
                                       : runtime::DefaultThreadCount()),
        max_retries_(EffectiveMaxRetries(opts.max_retries)),
        straggler_ms_(EffectiveStragglerMs(opts.straggler_ms)) {}

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
    const std::size_t slots = std::min(num_workers_, count);
    ProcsTransport transport(std::move(argv), slots);
    return Coordinate(transport, slots, count, max_retries_, straggler_ms_,
                      results);
  }

 private:
  const std::vector<std::string> worker_argv_;
  const std::size_t num_workers_;
  const int max_retries_;
  const int straggler_ms_;
};

}  // namespace

std::unique_ptr<Executor> MakeProcessExecutor(const ExecOptions& opts) {
  return std::make_unique<ProcessExecutor>(opts);
}

std::unique_ptr<Executor> MakeWorkerServer(const ExecOptions& opts) {
  return std::make_unique<WorkerServer>(opts);
}

}  // namespace disco::exec
