// Unified execution layer for the experiment harness.
//
// Every large run in this repository — sweep grids, figure benches,
// multi-trial scaling curves — is a fan-out of independent tasks where
// task i is a pure function of (argv, i) and returns a byte string (a TSV
// row, a serialized exec::TextBundle, a wire-encoded struct). An Executor
// runs such a fan-out and hands the results back in task order, so the
// caller's output is byte-identical no matter which backend executed it:
//
//   kThreads  in-process, over the runtime ThreadPool (parallel_for.h).
//   kProcs    worker subprocesses: the current binary re-invoked with
//             --worker=<job> appended to its own argv, task and result
//             frames streamed over one socketpair per worker.
//
// A procs worker has one channel, a stream socket installed as its stdin
// and as kResultFd: task frames in, result frames and the kObs goodbye
// out.
//
// The driver side is one coordinator loop (exec_internal.h,
// Coordinate()). It owns the policy: tasks are dispatched on demand, each
// to one worker at a time, and a task whose worker dies or reports an
// error is retried on another worker, up to TaskScheduler::kMaxRetries
// (2) re-runs (task_scheduler.h). A worker is opened only while pending
// tasks outnumber the idle ones, aborted by closing its channel and
// SIGKILLing it, and never respawned once lost. The goodbye is
// shutdown(SHUT_WR) on the channel.
//
// A worker gets SIGKILL when the thread that spawned it exits
// (PR_SET_PDEATHSIG), so Executor::Run must run on a thread that outlives
// the run; every caller runs it on a main thread.
//
// The worker contract: a worker process parses the same argv as its
// parent, follows the same code path, and therefore reaches the same
// sequence of Executor::Run calls. Run calls are numbered per process;
// the worker serves the call whose number matches its --worker=<job> flag
// (earlier calls run in-process so any state derived from them exists),
// then exits. This is what lets one binary be both driver and worker with
// no separate task-description format: the task function itself is
// reconstructed from argv. Consequently the sequence of Run calls a
// binary makes must be deterministic given argv. A useful corollary:
// process-wide resources the arg parser opens are shared by the whole
// pool — e.g. --store= (src/store/) makes every worker resolve prebuilt
// landmark trees from the same artifact store instead of replaying
// construction, which is how paper-scale sweeps avoid per-worker
// Dijkstra storms.
//
// Worker wire protocol — one versioned binary framing (exec/wire.h,
// magic "DWX1": 4-byte magic, 1-byte type, u64 index, u64 length,
// payload). It replaced the original "T/R/E" text-line protocol: text
// parsing meant a malformed request was echoed back through strtoull
// garbage and charged to whatever task the bytes happened to name.
//   driver -> worker (read on fd 0): kTask('T') index        run a task
//                                    EOF (SHUT_WR / close)   say goodbye
//   worker -> driver (fd 3):         kResult('R') index + payload bytes
//                                    kTaskError('E') index + message —
//                                      charges one attempt to that task
//                                    kProtocolError('B') + message — the
//                                      request stream itself was bad;
//                                      attributable to no task, it fails
//                                      the whole run
//                                    kObs('O') pid + trace JSON and
//                                      metrics text, once, after EOF
// Worker stdout is redirected to /dev/null (stray prints can't corrupt
// the frame stream); stderr is inherited for diagnostics. The layer reads
// no environment knob of its own; a worker's pool width comes from the
// DISCO_THREADS its driver sets for it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"

namespace disco::exec {

/// Task i must be a pure function of the process's argv and i: the process
/// backend evaluates it in a different process, possibly more than once.
using TaskFn = std::function<std::string(std::size_t)>;

enum class Backend { kThreads, kProcs };

/// Parses "threads" / "procs"; returns false for anything else.
bool ParseBackend(const std::string& name, Backend* out);

struct ExecOptions {
  Backend backend = Backend::kThreads;
  /// Process backend: number of worker subprocesses (0 = the runtime's
  /// DefaultThreadCount()). Ignored by the thread backend, which sizes
  /// itself from the pool.
  std::size_t workers = 0;
  /// The command the process backend re-invokes for workers — normally
  /// this process's own argv, verbatim. "--worker=<job>" is appended.
  std::vector<std::string> worker_argv;
  /// Thread backend: bounds task-level concurrency (e.g. a ThreadPool(1)
  /// serializes whole tasks while their inner fan-outs still use the
  /// shared pool). nullptr = the shared pool.
  runtime::ThreadPool* pool = nullptr;
};

struct RunResult {
  bool ok = true;
  std::size_t failed_task = 0;  // meaningful when !ok and task_known
  bool task_known = false;
  std::string error;
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs tasks 0..count-1 and fills (*results)[i] with fn(i)'s bytes, in
  /// task order. On failure returns ok=false with the offending task (when
  /// attributable) and a message; results are then unspecified.
  ///
  /// Every Run call consumes one process-wide job number (all backends),
  /// keeping driver and worker numbering aligned — see the worker
  /// contract above.
  virtual RunResult Run(std::size_t count, const TaskFn& fn,
                        std::vector<std::string>* results) = 0;
};

/// Builds the backend selected by `opts`. In a process already running in
/// worker mode (--worker=<job> was parsed), the returned executor serves
/// its assigned job instead of scheduling — callers need no special case.
std::unique_ptr<Executor> MakeExecutor(const ExecOptions& opts);

/// The fd a worker writes its frames to. It and stdin are the same
/// channel socket; stdin carries tasks.
constexpr int kResultFd = 3;

/// Marks this process as worker <job> of its parent driver. Called by the
/// arg parser when it sees --worker=<job>; results go to kResultFd.
void EnterWorkerMode(std::size_t job);
bool InWorkerMode();

/// The flag appended to worker_argv: "--worker=<job>".
std::string WorkerFlag(std::size_t job);

/// Resets the process-wide Run-call counter (and worker mode). Tests only:
/// lets a test harness that issues Run calls in a nondeterministic order
/// pin the job number its helper workers will be asked to serve.
void ResetJobNumberingForTest();

}  // namespace disco::exec
