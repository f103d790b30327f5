// Internals shared by the exec backends and disco_workerd: job numbering
// and the in-process runner (executor.cpp), the one coordinator loop the
// procs and net backends drive (coordinator.cpp), and the worker-process
// plumbing the procs backend and the daemon both spawn workers with. Not
// part of the public exec API.
#pragma once

#include <cerrno>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>
#include <unistd.h>

#include "exec/executor.h"
#include "exec/wire.h"

namespace disco::exec::internal {

/// Consumes the next process-wide Run-call number. Every Executor::Run
/// implementation claims exactly one, so driver and worker processes —
/// which execute the same deterministic sequence of Run calls — agree on
/// which call each job number names.
std::size_t ClaimJobNumber();

/// The job this worker process was told to serve (--worker=<job>).
std::size_t WorkerJob();

/// In-process task evaluation over the runtime pool; the body of the
/// thread backend, also used by workers to locally evaluate fan-outs that
/// precede their assigned job.
RunResult RunInProcess(std::size_t count, const TaskFn& fn,
                       std::vector<std::string>* results,
                       runtime::ThreadPool* pool);

}  // namespace disco::exec::internal

namespace disco::exec {

std::unique_ptr<Executor> MakeProcessExecutor(const ExecOptions& opts);
std::unique_ptr<Executor> MakeWorkerServer(const ExecOptions& opts);
std::unique_ptr<Executor> MakeNetExecutor(const ExecOptions& opts);

/// write(2) until all of `data` is out, retrying EINTR. False on any other
/// error (EPIPE from a dead peer included).
bool WriteAll(int fd, const char* data, std::size_t len);

/// How a PumpFrames call left the stream.
enum class Pump { kOpen, kClosed, kMalformed, kStopped };

/// The one frame read loop: reads one chunk from `fd` into `frames` and
/// hands each complete frame to `on_frame`, which returns false to stop.
/// kOpen when more may follow (EINTR included); kClosed on EOF or a read
/// error; kMalformed, with *error set, when the stream desynced.
template <typename OnFrame>
Pump PumpFrames(int fd, FrameBuffer* frames, std::string* error,
                OnFrame on_frame) {
  char chunk[65536];
  const ssize_t n = ::read(fd, chunk, sizeof chunk);
  if (n < 0 && errno == EINTR) return Pump::kOpen;
  if (n <= 0) return Pump::kClosed;
  frames->Append(chunk, static_cast<std::size_t>(n));
  for (;;) {
    Frame f;
    switch (frames->Next(&f, error)) {
      case FrameBuffer::Status::kNeedMore:
        return Pump::kOpen;
      case FrameBuffer::Status::kMalformed:
        return Pump::kMalformed;
      case FrameBuffer::Status::kFrame:
        if (!on_frame(f)) return Pump::kStopped;
    }
  }
}

/// The ends of a worker's streams held by whoever talks to it: task frames
/// are written to task_fd, frames are read from frame_fd. A spawned worker
/// has its pid and two pipes; a daemon connection has pid -1 and one
/// socket in both fields.
struct WorkerIo {
  pid_t pid = -1;
  int task_fd = -1;
  int frame_fd = -1;
};

/// Forks and execs `argv` as a worker: stdin = task pipe, stdout =
/// /dev/null (stray prints cannot corrupt the frame stream), kResultFd =
/// frame pipe, stderr inherited. `env` entries ("K=V") override this
/// process's environment. Used by the procs backend and by disco_workerd.
bool SpawnWorker(const std::vector<std::string>& argv,
                 const std::vector<std::string>& env, WorkerIo* out,
                 std::string* error);

/// SIGKILLs a spawned worker, closes its pipes and reaps it; resets *io.
/// Tasks are pure, so killing one mid-task loses nothing.
void KillWorker(WorkerIo* io);

/// What differs between the procs and net backends. A slot is one worker:
/// a subprocess (procs) or a daemon connection with a worker behind it
/// (net).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Names `slot` in messages ("worker 1", "daemon host:port").
  virtual std::string Describe(std::size_t slot) const = 0;
  /// Starts a fresh worker behind `slot`.
  virtual bool Open(std::size_t slot, WorkerIo* io, std::string* why) = 0;
  /// Stops the slot's worker outright; resets *io.
  virtual void Abort(WorkerIo* io) = 0;
  /// Tells the worker the run is over: it answers with one kObs frame
  /// and ends its frame stream.
  virtual void Goodbye(WorkerIo* io) = 0;

  /// Loss policy. A slot gets max(1, reopen_attempts) consecutive failed
  /// open attempts before it is abandoned, spaced by a backoff that starts
  /// at backoff_ms and doubles up to backoff_max_ms. With reopen_attempts
  /// == 0 a lost slot is never reopened.
  int reopen_attempts = 0;
  int backoff_ms = 1;
  int backoff_max_ms = 1;
};

/// Runs tasks 0..count-1 on `slots` slots of `transport`: opens the
/// slots, dispatches tasks on demand, routes result, error and loss events
/// through a TaskScheduler (retries, straggler duplication), and at the
/// end drains each idle worker's kObs goodbye into this process's metrics
/// and trace. The returned error names the failing task when it is known.
RunResult Coordinate(Transport& transport, std::size_t slots,
                     std::size_t count, int max_retries, int straggler_ms,
                     std::vector<std::string>* results);

}  // namespace disco::exec
