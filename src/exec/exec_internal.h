// Internals shared by the exec backends: job numbering and the in-process
// runner (executor.cpp), the frame I/O both ends of a worker channel use,
// and the procs backend's coordinator loop (coordinator.cpp). Not part of
// the public exec API.
#pragma once

#include <cerrno>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

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

/// Runs tasks 0..count-1 on up to `slots` worker processes, each `argv`
/// (the driver's own argv plus --worker=<job>) on one end of a
/// socketpair: opens a worker only while pending tasks outnumber the idle
/// ones, dispatches each task to one worker at a time on demand, routes
/// result, error and loss events through a TaskScheduler (which requeues
/// a failed attempt within its fixed retry budget), and at the end drains
/// each worker's kObs goodbye into this process's metrics and trace. The
/// returned error names the failing task when it is known. The goodbye is
/// shutdown(SHUT_WR) on the worker's channel: the worker reads EOF,
/// answers with one kObs frame and exits.
RunResult Coordinate(const std::vector<std::string>& argv, std::size_t slots,
                     std::size_t count, std::vector<std::string>* results);

}  // namespace disco::exec
