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
//             frames streamed over pipes.
//   kNet      disco_workerd daemons named by ExecOptions::hosts, each
//             asked to spawn the same --worker=<job> re-invocation and to
//             relay the same frames over TCP.
//
// kProcs and kNet are one coordinator (exec_internal.h, Coordinate())
// driving two transports. The coordinator owns the policy: tasks are
// dispatched on demand, a task whose worker dies or reports an error is
// retried on another slot (TaskScheduler, task_scheduler.h), and a task
// still running past a deadline is speculatively duplicated onto an idle
// slot — first result wins. A transport differs only in how a slot opens
// (fork a worker / connect to a daemon and have it spawn one), aborts
// (SIGKILL / close), says goodbye (close the worker's stdin /
// shutdown(SHUT_WR)), and whether a lost slot comes back: a procs worker
// is never respawned, a daemon connection is reopened with bounded
// exponential backoff, which gets it a fresh worker.
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
// payload) for every transport. It replaced the original "T/R/E"
// text-line protocol: text parsing meant a malformed request was echoed
// back through strtoull garbage and charged to whatever task the bytes
// happened to name.
//   driver -> worker (stdin / TCP):  kTask('T') index        run a task
//                                    EOF / close             exit cleanly
//   worker -> driver (fd 3 / TCP):   kResult('R') index + payload bytes
//                                    kTaskError('E') index + message —
//                                      charges one retry to that task
//                                    kProtocolError('B') + message — the
//                                      request stream itself was bad;
//                                      attributable to no task, it fails
//                                      the whole run
//   coordinator <-> daemon only:     kHello('H') index=protocol version,
//                                      daemon -> coordinator on accept
//                                    kSpawn('S') + argv/env payload,
//                                      coordinator -> daemon: fork/exec
//                                      the worker behind this connection
// Worker stdout is redirected to /dev/null (stray prints can't corrupt
// the frame stream); stderr is inherited for diagnostics. Under kNet the
// daemon relays worker frames to the coordinator byte-for-byte — the
// shared framing is what makes the daemon a pure byte pump.
//
// Env knobs (read when the matching ExecOptions field is left at -1):
//   DISCO_EXEC_RETRIES       re-runs allowed per task after its first
//                            failure (default 2, i.e. up to 3 attempts)
//   DISCO_EXEC_STRAGGLER_MS  deadline after which a running task is
//                            speculatively duplicated onto an idle
//                            worker (default 0 = disabled)
// Net-backend knobs (always env; no ExecOptions field):
//   DISCO_EXEC_NET_BACKOFF_MS      first reconnect delay after a lost
//                                  daemon connection (default 50)
//   DISCO_EXEC_NET_BACKOFF_MAX_MS  backoff ceiling; delays double up to
//                                  this bound (default 2000)
//   DISCO_EXEC_NET_RECONNECTS      consecutive failed (re)connect
//                                  attempts per daemon before that slot
//                                  is abandoned (default 5)
// All knobs are clamp-checked like Args::Parse numerics: garbage or
// out-of-int-range values fall back to the default instead of silently
// truncating.
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

enum class Backend { kThreads, kProcs, kNet };

/// Parses "threads" / "procs" / "net"; returns false for anything else.
bool ParseBackend(const std::string& name, Backend* out);

struct ExecOptions {
  Backend backend = Backend::kThreads;
  /// Process backend: number of worker subprocesses (0 = the runtime's
  /// DefaultThreadCount()). Ignored by the thread backend, which sizes
  /// itself from the pool.
  std::size_t workers = 0;
  /// Re-runs allowed per task after its first failure; -1 reads
  /// DISCO_EXEC_RETRIES (default 2). Procs and net backends.
  int max_retries = -1;
  /// Straggler deadline in milliseconds; -1 reads DISCO_EXEC_STRAGGLER_MS
  /// (default 0 = never duplicate). Procs and net backends.
  int straggler_ms = -1;
  /// The command the process backend re-invokes for workers — normally
  /// this process's own argv, verbatim. "--worker=<job>" is appended.
  /// The net backend ships the same command to each daemon, which execs
  /// it on its own host (the binary must exist there at the same path).
  std::vector<std::string> worker_argv;
  /// Net backend: "host:port" daemon endpoints, one worker slot per
  /// entry (repeat an endpoint for more slots on that host).
  std::vector<std::string> hosts;
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

/// The fd a worker writes its result frames to (its stdin carries tasks).
constexpr int kResultFd = 3;

/// Marks this process as worker <job> of its parent driver. Called by the
/// arg parser when it sees --worker=<job>; results go to kResultFd.
void EnterWorkerMode(std::size_t job);
bool InWorkerMode();

/// The flag appended to worker_argv: "--worker=<job>".
std::string WorkerFlag(std::size_t job);

/// Effective knob values (field if >= 0, else env, else default).
int EffectiveMaxRetries(int field);
int EffectiveStragglerMs(int field);

/// Net-backend reconnect knobs (env only; see the header comment).
int EffectiveNetBackoffMs();
int EffectiveNetBackoffMaxMs();
int EffectiveNetReconnects();

/// Resets the process-wide Run-call counter (and worker mode). Tests only:
/// lets a test harness that issues Run calls in a nondeterministic order
/// pin the job number its helper workers will be asked to serve.
void ResetJobNumberingForTest();

}  // namespace disco::exec
