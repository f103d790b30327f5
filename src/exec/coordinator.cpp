// The coordinator loop behind the procs and net backends, and the worker
// spawn both the procs backend and disco_workerd use.
//
// Coordinate() owns everything the two transports share: the
// TaskScheduler, demand-driven dispatch (a slot gets its next task the
// moment its previous frame arrives, so uneven tasks load-balance), the
// poll loop, frame decode, failure routing, and the bounded kObs goodbye
// drain. Failure policy:
//   - a slot whose stream dies (worker crash or SIGKILL, daemon or
//     connection loss) charges its in-flight task one failed attempt and
//     the task is requeued onto other slots; the slot itself is reopened
//     or retired per the transport's loss policy, and the run fails,
//     naming the lowest unfinished task, once every slot is retired;
//   - a task that reports an error (kTaskError) is retried elsewhere, up
//     to max_retries re-runs, after which the run fails naming the task;
//   - a malformed stream or a kProtocolError frame fails the run — it is
//     attributable to no task, so it must never charge an innocent one.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exec/exec_internal.h"
#include "exec/task_scheduler.h"
#include "exec/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

extern char** environ;

namespace disco::exec {
namespace {

using Clock = std::chrono::steady_clock;

// Coordinator-side state of one slot. Its TaskScheduler slot id is its
// index in the slot vector.
struct Slot {
  WorkerIo io;
  FrameBuffer frames;
  bool open = false;
  bool abandoned = false;      // out of open attempts, or lost for good
  int attempts_left = 0;       // consecutive open attempts remaining
  int backoff_ms = 0;          // delay before the next attempt
  Clock::time_point retry_at;  // when the next attempt is due
};

// A dead peer's write end must raise EPIPE, not a process-killing SIGPIPE
// — but only while a run is coordinating. The previous disposition comes
// back on every return path, so driver code keeps its normal
// die-on-closed-stdout behavior outside the loop.
struct SigpipeGuard {
  void (*previous)(int);
  SigpipeGuard() : previous(std::signal(SIGPIPE, SIG_IGN)) {}
  ~SigpipeGuard() { std::signal(SIGPIPE, previous); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;
};

// Polls the frame fd of every open slot; `ready` receives the slots with
// input or a hangup pending. Returns poll's result (errno set when < 0).
int PollOpenSlots(std::vector<Slot>& slots, int timeout_ms,
                  std::vector<Slot*>* ready) {
  std::vector<pollfd> fds;
  std::vector<Slot*> polled;
  for (Slot& s : slots) {
    if (!s.open) continue;
    fds.push_back({s.io.frame_fd, POLLIN, 0});
    polled.push_back(&s);
  }
  ready->clear();
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  for (std::size_t i = 0; n > 0 && i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ready->push_back(polled[i]);
    }
  }
  return n;
}

// Folds a worker's goodbye into this process: its trace sidecar joins the
// merged timeline, its counters add onto ours.
void MergeObs(const Frame& f) {
  std::string sidecar_path, metrics_text;
  if (f.type != static_cast<char>(FrameType::kObs) ||
      !ParseObsPayload(f.payload, &sidecar_path, &metrics_text)) {
    return;  // a stale straggler result, or an unreadable goodbye
  }
  obs::RecordWorkerSidecar(sidecar_path);
  obs::Global().MergeFromPrometheusText(metrics_text);
  obs::Global().NoteMergedSource();
}

}  // namespace

bool WriteAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool SpawnWorker(const std::vector<std::string>& argv_in,
                 const std::vector<std::string>& env_in, WorkerIo* out,
                 std::string* error) {
  // Everything the child needs is prepared before fork(): the parent may
  // have pool threads running, so the child must restrict itself to
  // async-signal-safe calls (dup2/fcntl/execve/_exit) until exec.
  std::vector<std::string> argv_strings = argv_in;
  std::vector<char*> argv;
  for (std::string& a : argv_strings) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::vector<std::string> env_strings = env_in;
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    const std::size_t key_len =
        eq != nullptr ? static_cast<std::size_t>(eq - *e) : std::strlen(*e);
    const bool overridden =
        std::any_of(env_strings.begin(), env_strings.end(),
                    [&](const std::string& o) {
                      return o.size() > key_len && o[key_len] == '=' &&
                             o.compare(0, key_len, *e, key_len) == 0;
                    });
    if (!overridden) envp.push_back(*e);
  }
  for (std::string& o : env_strings) envp.push_back(o.data());
  envp.push_back(nullptr);

  int task_pipe[2], frame_pipe[2];
  if (::pipe2(task_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe2: ") + std::strerror(errno);
    return false;
  }
  if (::pipe2(frame_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe2: ") + std::strerror(errno);
    ::close(task_pipe[0]);
    ::close(task_pipe[1]);
    return false;
  }
  const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);

  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child. dup2 clears O_CLOEXEC on the target fd; every original pipe
    // end still carries it and vanishes at exec. When a pipe end already
    // landed on its target fd (pipe2 hands out the lowest free fd, so a
    // parent launched with stdin/stdout closed gets task_pipe[0] == 0),
    // dup2 would be a no-op that leaves O_CLOEXEC set and the fd would
    // vanish at exec — clear the flag in place instead.
    const auto install = [](int from, int to) {
      if (from == to) {
        ::fcntl(to, F_SETFD, 0);
      } else {
        ::dup2(from, to);
      }
    };
    install(task_pipe[0], 0);
    if (devnull >= 0) install(devnull, 1);
    install(frame_pipe[1], kResultFd);
    ::execvpe(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  if (pid < 0) *error = std::string("fork: ") + std::strerror(errno);
  ::close(task_pipe[0]);
  ::close(frame_pipe[1]);
  if (devnull >= 0) ::close(devnull);
  if (pid < 0) {
    ::close(task_pipe[1]);
    ::close(frame_pipe[0]);
    return false;
  }
  *out = WorkerIo{pid, task_pipe[1], frame_pipe[0]};
  return true;
}

void KillWorker(WorkerIo* io) {
  if (io->task_fd >= 0) ::close(io->task_fd);
  if (io->frame_fd >= 0) ::close(io->frame_fd);
  if (io->pid > 0) {
    ::kill(io->pid, SIGKILL);
    int status = 0;
    ::waitpid(io->pid, &status, 0);
  }
  *io = WorkerIo{};
}

RunResult Coordinate(Transport& transport, std::size_t num_slots,
                     std::size_t count, int max_retries, int straggler_ms,
                     std::vector<std::string>* results) {
  SigpipeGuard sigpipe_guard;
  TaskScheduler sched(count, max_retries, straggler_ms, results);
  const int attempts = std::max(1, transport.reopen_attempts);
  const int backoff = std::max(1, transport.backoff_ms);
  const int backoff_max = std::max(1, transport.backoff_max_ms);
  std::vector<Slot> slots(num_slots);
  for (Slot& s : slots) {
    sched.AddSlot();
    s.attempts_left = attempts;
    s.backoff_ms = backoff;  // retry_at starts at the epoch: due now
  }
  const auto id = [&](const Slot& s) {
    return static_cast<std::size_t>(&s - slots.data());
  };
  const auto abort = [&](Slot& s) {
    transport.Abort(&s.io);
    s.open = false;
  };
  const auto fail = [&](std::size_t task, bool task_known,
                        std::string message) {
    for (Slot& s : slots) {
      if (s.open) abort(s);
    }
    return RunResult{false, task, task_known, std::move(message)};
  };
  const auto fail_from_sched = [&] {
    return fail(sched.failed_task(), sched.task_known(), sched.error());
  };
  // A slot's stream died: charge its in-flight task, then arm the slot's
  // reopen timer or retire it. False when the charge exhausted the task's
  // retries.
  const auto lose = [&](Slot& s) {
    abort(s);
    if (transport.reopen_attempts == 0) {
      s.abandoned = true;
    } else {
      s.attempts_left = attempts;
      s.backoff_ms = backoff;
      s.retry_at = Clock::now() + std::chrono::milliseconds(backoff);
    }
    return sched.OnSlotDeath(id(s), transport.Describe(id(s)) + " lost");
  };

  std::vector<Slot*> ready;
  std::string last_open_error;
  while (!sched.done()) {
    const Clock::time_point now = Clock::now();

    // Open pass: every closed slot whose timer expired gets one attempt;
    // a failure re-arms the timer with doubled (bounded) delay until the
    // slot's attempts run out.
    for (Slot& s : slots) {
      if (s.open || s.abandoned || now < s.retry_at) continue;
      std::string why;
      if (transport.Open(id(s), &s.io, &why)) {
        s.open = true;
        s.frames = FrameBuffer{};
        s.attempts_left = attempts;
        s.backoff_ms = backoff;
      } else if (--s.attempts_left <= 0) {
        s.abandoned = true;
        last_open_error = why;
        obs::Log(obs::LogLevel::kWarn, "[exec] giving up on %s: %s",
                 transport.Describe(id(s)).c_str(), why.c_str());
      } else {
        s.retry_at = now + std::chrono::milliseconds(s.backoff_ms);
        s.backoff_ms = std::min(s.backoff_ms * 2, backoff_max);
      }
    }

    // Dispatch pass: pending tasks first, then — past the straggler
    // deadline — a speculative duplicate (TaskScheduler::NextTask).
    for (Slot& s : slots) {
      if (!s.open || sched.task_of(id(s)) != TaskScheduler::kNoTask) {
        continue;
      }
      const std::size_t task = sched.NextTask(id(s), now);
      if (task == TaskScheduler::kNoTask) continue;
      const std::string frame =
          EncodeFrame(static_cast<char>(FrameType::kTask), task, "");
      if (!WriteAll(s.io.task_fd, frame.data(), frame.size()) && !lose(s)) {
        return fail_from_sched();
      }
    }

    // Checked after dispatch, which can lose slots too: with every slot
    // retired there is nothing left to wait for.
    if (std::all_of(slots.begin(), slots.end(),
                    [](const Slot& s) { return s.abandoned; })) {
      const std::size_t first_unfinished = sched.FirstUnfinished();
      return fail(first_unfinished, true,
                  "all worker slots lost with task " +
                      std::to_string(first_unfinished) + " unfinished" +
                      (last_open_error.empty() ? ""
                                               : " (" + last_open_error +
                                                     ")"));
    }

    // Wait for frames, no longer than the straggler scan and the earliest
    // reopen timer allow.
    int timeout = straggler_ms > 0 ? std::max(10, std::min(straggler_ms, 200))
                                   : -1;
    for (const Slot& s : slots) {
      if (s.open || s.abandoned) continue;
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          s.retry_at - now);
      const int ms = static_cast<int>(std::max<long long>(1, until.count()));
      timeout = timeout < 0 ? ms : std::min(timeout, ms);
    }
    if (PollOpenSlots(slots, timeout, &ready) < 0 && errno != EINTR) {
      return fail(0, false, std::string("poll: ") + std::strerror(errno));
    }

    for (Slot* s : ready) {
      std::string error;
      const Pump p = PumpFrames(s->io.frame_fd, &s->frames, &error,
                                [&](Frame& f) {
        switch (static_cast<FrameType>(f.type)) {
          case FrameType::kResult:
            return sched.OnResult(id(*s), f.index, std::move(f.payload));
          case FrameType::kTaskError:
            return sched.OnTaskError(id(*s), f.index, f.payload);
          case FrameType::kProtocolError:
            return sched.OnProtocolError(id(*s), f.payload);
          default:
            error = std::string("unexpected frame type '") + f.type +
                    "' from " + transport.Describe(id(*s));
            return false;
        }
      });
      if (p == Pump::kClosed && !lose(*s)) return fail_from_sched();
      if (p == Pump::kMalformed) {
        return fail(0, false,
                    "malformed frame from " + transport.Describe(id(*s)) +
                        ": " + error);
      }
      if (p == Pump::kStopped) {
        return error.empty() ? fail_from_sched() : fail(0, false, error);
      }
    }
  }

  // Done. A slot still computing a stale straggler duplicate is aborted —
  // tasks are pure, nothing is lost. Idle slots get a goodbye, and each
  // worker answers with one kObs frame (trace sidecar path + Prometheus
  // metrics) before exiting; drain those so per-process counters aggregate
  // and trace sidecars merge. The drain is bounded — a slot dawdling past
  // the deadline is aborted, costing only its observability data.
  for (Slot& s : slots) {
    if (!s.open) continue;
    if (sched.task_of(id(s)) != TaskScheduler::kNoTask) {
      abort(s);
    } else {
      transport.Goodbye(&s.io);
    }
  }
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    const long long remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count();
    if (remaining_ms <= 0 ||
        std::none_of(slots.begin(), slots.end(),
                     [](const Slot& s) { return s.open; })) {
      break;
    }
    const int n = PollOpenSlots(
        slots, static_cast<int>(std::min<long long>(remaining_ms, 200)),
        &ready);
    if (n < 0 && errno != EINTR) break;
    for (Slot* s : ready) {
      std::string error;
      const Pump p = PumpFrames(s->io.frame_fd, &s->frames, &error,
                                [](const Frame& f) {
                                  MergeObs(f);
                                  return true;
                                });
      // The run already succeeded: a closed or desynced stream only ends
      // this slot's goodbye.
      if (p == Pump::kClosed || p == Pump::kMalformed) abort(*s);
    }
  }
  for (Slot& s : slots) {
    if (s.open) abort(s);
  }
  return RunResult{};
}

}  // namespace disco::exec
