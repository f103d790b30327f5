// The procs backend's driver side: the coordinator loop and the worker
// spawn it opens slots with.
//
// Coordinate() owns the TaskScheduler, demand-driven dispatch (a worker
// gets its next task the moment its previous frame arrives, so uneven
// tasks load-balance), the poll loop over each worker's one channel
// socket, frame decode, failure routing, the shutdown(SHUT_WR) goodbye
// and the bounded kObs drain that follows it. Each task runs on at most
// one worker at a time. Failure policy:
//   - a worker whose stream dies (crash or SIGKILL) charges its in-flight
//     task one failed attempt and the task is requeued onto other
//     workers; the lost slot is never reopened, and the run fails, naming
//     the lowest unfinished task, once every slot is lost;
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
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exec/exec_internal.h"
#include "exec/task_scheduler.h"
#include "exec/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

extern char** environ;

namespace disco::exec {
namespace {

using Clock = std::chrono::steady_clock;

// Coordinator-side state of one slot: at most one worker subprocess over
// its life. Its TaskScheduler slot id is its index in the slot vector.
struct Slot {
  pid_t pid = -1;
  int fd = -1;  // our end of the worker's channel
  FrameBuffer frames;
  bool open = false;
  bool lost = false;  // its worker died or never started: never reopened
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
    fds.push_back({s.fd, POLLIN, 0});
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

// Forks and execs `argv` as a worker on `channel`, a stream socket
// installed as both its stdin (tasks in) and kResultFd (frames out);
// stdout is /dev/null (stray prints cannot corrupt the frame stream),
// stderr is inherited. `env` entries ("K=V") override this process's
// environment. The worker gets SIGKILL when the spawning thread exits
// (PR_SET_PDEATHSIG), so it never outlives its spawner. The caller still
// owns `channel` and closes its copy. Returns the pid, or -1 with
// *error set.
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

// Starts slot `s`'s worker on a fresh socketpair. `threads` is its
// DISCO_THREADS override.
bool OpenSlot(const std::vector<std::string>& argv, const std::string& threads,
              Slot* s, std::string* why) {
  int ends[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) != 0) {
    *why = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  const pid_t pid = SpawnWorker(argv, {threads}, ends[1], why);
  ::close(ends[1]);
  if (pid < 0) {
    ::close(ends[0]);
    return false;
  }
  s->pid = pid;
  s->fd = ends[0];
  s->frames = FrameBuffer{};
  s->open = true;
  return true;
}

// Closes the slot's channel and kills its worker. Tasks are pure, so
// killing a worker mid-task loses nothing.
void AbortSlot(Slot* s) {
  ::close(s->fd);
  ::kill(s->pid, SIGKILL);
  ::waitpid(s->pid, nullptr, 0);
  s->pid = -1;
  s->fd = -1;
  s->open = false;
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

RunResult Coordinate(const std::vector<std::string>& argv,
                     std::size_t num_slots, std::size_t count,
                     std::vector<std::string>* results) {
  SigpipeGuard sigpipe_guard;
  TaskScheduler sched(count, results);
  // Splits the machine between workers: each gets an equal slice of the
  // default thread budget unless the caller pinned --threads explicitly
  // (an explicit --threads in argv overrides the env in the worker's own
  // flag parsing).
  const std::string threads =
      "DISCO_THREADS=" + std::to_string(std::max<std::size_t>(
                             1, runtime::DefaultThreadCount() / num_slots));
  std::vector<Slot> slots(num_slots);
  for (std::size_t i = 0; i < num_slots; ++i) sched.AddSlot();
  const auto id = [&](const Slot& s) {
    return static_cast<std::size_t>(&s - slots.data());
  };
  const auto describe = [&](const Slot& s) {
    return "worker " + std::to_string(id(s));
  };
  const auto fail = [&](std::size_t task, bool task_known,
                        std::string message) {
    for (Slot& s : slots) {
      if (s.open) AbortSlot(&s);
    }
    return RunResult{false, task, task_known, std::move(message)};
  };
  const auto fail_from_sched = [&] {
    return fail(sched.failed_task(), sched.task_known(), sched.error());
  };
  // A worker's stream died: retire its slot and charge its in-flight
  // task. False when the charge exhausted the task's retries.
  const auto lose = [&](Slot& s) {
    AbortSlot(&s);
    s.lost = true;
    return sched.OnSlotDeath(id(s), describe(s) + " lost");
  };

  std::vector<Slot*> ready;
  std::string last_open_error;
  while (!sched.done()) {
    // Open pass: while pending tasks outnumber the idle open slots, start
    // a worker in the next slot never opened. A slot nothing is waiting
    // for stays closed, so a run with fewer tasks than slots starts no
    // surplus worker, yet a lost worker's work still reaches a slot not
    // yet opened.
    std::size_t idle = static_cast<std::size_t>(
        std::count_if(slots.begin(), slots.end(), [&](const Slot& s) {
          return s.open && sched.task_of(id(s)) == TaskScheduler::kNoTask;
        }));
    for (Slot& s : slots) {
      if (s.open || s.lost) continue;
      if (sched.pending() <= idle) break;
      std::string why;
      if (OpenSlot(argv, threads, &s, &why)) {
        ++idle;
      } else {
        s.lost = true;
        last_open_error = why;
        obs::Log(obs::LogLevel::kWarn, "[exec] cannot start %s: %s",
                 describe(s).c_str(), why.c_str());
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
      if (!WriteAll(s.fd, frame.data(), frame.size()) && !lose(s)) {
        return fail_from_sched();
      }
    }

    // Checked after dispatch, which can lose slots too: with every slot
    // lost there is nothing left to wait for.
    if (std::all_of(slots.begin(), slots.end(),
                    [](const Slot& s) { return s.lost; })) {
      const std::size_t first_unfinished = sched.FirstUnfinished();
      return fail(first_unfinished, true,
                  "all worker slots lost with task " +
                      std::to_string(first_unfinished) + " unfinished" +
                      (last_open_error.empty() ? ""
                                               : " (" + last_open_error +
                                                     ")"));
    }
    // A dispatch write that lost the only open worker leaves nothing to
    // poll; the open pass starts the next slot.
    if (std::none_of(slots.begin(), slots.end(),
                     [](const Slot& s) { return s.open; })) {
      continue;
    }

    if (PollOpenSlots(slots, -1, &ready) < 0 && errno != EINTR) {
      return fail(0, false, std::string("poll: ") + std::strerror(errno));
    }

    for (Slot* s : ready) {
      std::string error;
      const Pump p = PumpFrames(s->fd, &s->frames, &error, [&](Frame& f) {
        switch (static_cast<FrameType>(f.type)) {
          case FrameType::kResult:
            return sched.OnResult(id(*s), f.index, std::move(f.payload));
          case FrameType::kTaskError:
            return sched.OnTaskError(id(*s), f.index, f.payload);
          case FrameType::kProtocolError:
            return sched.OnProtocolError(id(*s), f.payload);
          default:
            error = std::string("unexpected frame type '") + f.type +
                    "' from " + describe(*s);
            return false;
        }
      });
      if (p == Pump::kClosed && !lose(*s)) return fail_from_sched();
      if (p == Pump::kMalformed) {
        return fail(0, false,
                    "malformed frame from " + describe(*s) + ": " + error);
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
    if (s.open) ::shutdown(s.fd, SHUT_WR);
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
      const Pump p = PumpFrames(s->fd, &s->frames, &error,
                                [](const Frame& f) {
                                  MergeObs(f);
                                  return true;
                                });
      // The run already succeeded: a closed or desynced stream only ends
      // this slot's goodbye.
      if (p == Pump::kClosed || p == Pump::kMalformed) AbortSlot(s);
    }
  }
  for (Slot& s : slots) {
    if (s.open) AbortSlot(&s);
  }
  return RunResult{};
}

}  // namespace disco::exec
