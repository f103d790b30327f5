// The coordinator loop behind the procs and net backends, and the worker
// spawn both the procs backend and disco_workerd use.
//
// Coordinate() owns everything the two transports share: the
// TaskScheduler, demand-driven dispatch (a slot gets its next task the
// moment its previous frame arrives, so uneven tasks load-balance), the
// poll loop over each slot's one channel socket, frame decode, failure
// routing, the shutdown(SHUT_WR) goodbye and the bounded kObs drain that
// follows it. Each task runs on at most one slot at a time. Failure
// policy:
//   - a slot whose stream dies (worker crash or SIGKILL, daemon or
//     connection loss) charges its in-flight task one failed attempt and
//     the task is requeued onto other slots; the slot itself is reopened
//     or retired per the transport's loss policy, and the run fails,
//     naming the lowest unfinished task, once every slot is retired;
//   - a task that reports an error (kTaskError) is retried elsewhere, up
//     to TaskScheduler::kMaxRetries re-runs, after which the run fails
//     naming the task;
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
#include <sys/prctl.h>
#include <sys/socket.h>
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

// Polls the channel of every open slot; `ready` receives the slots with
// input or a hangup pending. Returns poll's result (errno set when < 0).
int PollOpenSlots(std::vector<Slot>& slots, int timeout_ms,
                  std::vector<Slot*>* ready) {
  std::vector<pollfd> fds;
  std::vector<Slot*> polled;
  for (Slot& s : slots) {
    if (!s.open) continue;
    fds.push_back({s.io.fd, POLLIN, 0});
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

// Folds a worker's goodbye into this process: its trace joins the merged
// timeline, its counters add onto ours.
void MergeObs(const Frame& f) {
  std::string trace_json, metrics_text;
  if (f.type != static_cast<char>(FrameType::kObs) ||
      !ParseObsPayload(f.payload, &trace_json, &metrics_text)) {
    return;  // not a goodbye, or an unreadable one
  }
  obs::MergeWorkerTrace(trace_json);
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

pid_t SpawnWorker(const std::vector<std::string>& argv_in,
                  const std::vector<std::string>& env_in, int channel,
                  std::string* error) {
  // Everything the child needs is prepared before fork(): the parent may
  // have pool threads running, so the child must restrict itself to
  // async-signal-safe calls (prctl/fcntl/dup2/execve/_exit) until exec.
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

  const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child. Die with the spawner: PDEATHSIG fires when the forking
    // thread exits, and the getppid() check closes the window in which
    // it exited before the prctl.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(127);
    // The one fd-install path. Sources are first lifted above the target
    // range, so no source can sit on a target (a parent launched with
    // stdin or stdout closed hands out low fds) and dup2 never degrades
    // to a no-op that leaves O_CLOEXEC set. dup2 clears O_CLOEXEC on each
    // target; the lifted copies keep it and vanish at exec.
    const int io = ::fcntl(channel, F_DUPFD_CLOEXEC, kResultFd + 1);
    const int out =
        devnull >= 0 ? ::fcntl(devnull, F_DUPFD_CLOEXEC, kResultFd + 1) : -1;
    ::dup2(io, 0);
    if (out >= 0) ::dup2(out, 1);
    ::dup2(io, kResultFd);
    ::execvpe(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  if (pid < 0) *error = std::string("fork: ") + std::strerror(errno);
  if (devnull >= 0) ::close(devnull);
  return pid;
}

RunResult Coordinate(Transport& transport, std::size_t num_slots,
                     std::size_t count, std::vector<std::string>* results) {
  SigpipeGuard sigpipe_guard;
  TaskScheduler sched(count, results);
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

    // Open pass: while pending tasks outnumber the idle open slots, every
    // closed slot whose timer expired gets one attempt; a failure re-arms
    // the timer with doubled (bounded) delay until the slot's attempts run
    // out. A slot nothing is waiting for stays closed, so a run with fewer
    // tasks than slots starts no surplus worker, yet a lost or unreachable
    // slot still hands its work to one not yet opened.
    std::size_t idle = static_cast<std::size_t>(
        std::count_if(slots.begin(), slots.end(), [&](const Slot& s) {
          return s.open && sched.task_of(id(s)) == TaskScheduler::kNoTask;
        }));
    for (Slot& s : slots) {
      if (s.open || s.abandoned || now < s.retry_at) continue;
      if (sched.pending() <= idle) break;
      std::string why;
      if (transport.Open(id(s), &s.io, &why)) {
        s.open = true;
        s.frames = FrameBuffer{};
        s.attempts_left = attempts;
        s.backoff_ms = backoff;
        ++idle;
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

    // Dispatch pass: every idle open slot gets the next pending task.
    for (Slot& s : slots) {
      if (!s.open || sched.task_of(id(s)) != TaskScheduler::kNoTask) {
        continue;
      }
      const std::size_t task = sched.NextTask(id(s));
      if (task == TaskScheduler::kNoTask) continue;
      const std::string frame =
          EncodeFrame(static_cast<char>(FrameType::kTask), task, "");
      if (!WriteAll(s.io.fd, frame.data(), frame.size()) && !lose(s)) {
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

    // Wait for frames, no longer than the earliest reopen timer allows.
    // Dispatch left no open slot idle while tasks are pending, so timers
    // only matter when some are.
    int timeout = -1;
    for (const Slot& s : slots) {
      if (s.open || s.abandoned || sched.pending() == 0) continue;
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
      const Pump p = PumpFrames(s->io.fd, &s->frames, &error,
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

  // Done, so every slot is idle. Each open slot gets a goodbye — a
  // half-close of its channel — and its worker answers with one kObs
  // frame (its trace + Prometheus metrics) before exiting; drain those so
  // per-process counters aggregate and worker traces merge. The drain is
  // bounded — a slot dawdling past the deadline is aborted, costing only
  // its observability data.
  for (Slot& s : slots) {
    if (s.open) ::shutdown(s.io.fd, SHUT_WR);
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
      const Pump p = PumpFrames(s->io.fd, &s->frames, &error,
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
