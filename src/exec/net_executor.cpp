// Network executor backend (--backend=net): the TCP transport of the
// shared coordinator (exec_internal.h, Coordinate()), streaming
// wire-framed tasks to disco_workerd daemons (net_daemon.h).
//
// Each ExecOptions::hosts entry is one worker slot. Opening a slot
// connects to the daemon, checks its kHello protocol version, and sends a
// kSpawn frame carrying this process's own argv plus --worker=<job> — the
// daemon execs exactly the re-invocation the procs backend forks locally,
// so a remote worker follows the same argv-determined code path and the
// run's bytes cannot depend on where a task executed. The daemon spawns
// the worker on this very connection and lets go of it, so from there
// the coordinator talks to the worker directly, in the same frames the
// procs transport carries.
//
// Loss policy: a lost connection costs the in-flight task one failed
// attempt (the coordinator requeues it onto other slots) while the slot
// reconnects with bounded exponential backoff — so a SIGKILLed worker
// costs one retry and the slot comes back with a fresh worker, a
// SIGKILLed daemon drains its slot's reconnect budget and the run
// finishes on surviving daemons, and a daemon restarted within the
// backoff window picks its slot back up mid-run.
#include <algorithm>
#include <cerrno>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "exec/exec_internal.h"
#include "exec/net_daemon.h"
#include "exec/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace disco::exec {
namespace {

obs::Counter& ReconnectCounter() {
  static obs::Counter* c = &obs::Global().RegisterCounter(
      "disco_exec_net_reconnects_total",
      "Successful daemon (re)connections by the net backend", "exec net",
      "reconnects");
  return *c;
}

constexpr int kConnectTimeoutMs = 1000;  // per TCP connect attempt
constexpr int kHelloTimeoutMs = 5000;    // daemon accept -> hello frame

// Non-blocking connect with a deadline, restored to blocking on success.
int ConnectWithTimeout(const std::string& host, int port,
                       std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  const int gai = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints,
                                &res);
  if (gai != 0) {
    *error = "resolve " + host + ": " + ::gai_strerror(gai);
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family,
                  ai->ai_socktype | SOCK_CLOEXEC | SOCK_NONBLOCK,
                  ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    if (errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, kConnectTimeoutMs);
      int so_error = 0;
      socklen_t len = sizeof so_error;
      if (ready == 1 &&
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) == 0 &&
          so_error == 0) {
        break;
      }
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    *error = "connect " + host + ":" + port_str + " failed";
    return -1;
  }
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  return fd;
}

// A slot is one daemon endpoint. Opening it connects, checks the daemon's
// kHello protocol version and sends kSpawn; a lost connection is reopened
// with bounded backoff, which gets the slot a fresh worker.
class NetTransport final : public Transport {
 public:
  NetTransport(std::vector<std::string> argv,
               std::vector<std::pair<std::string, int>> endpoints)
      : argv_(std::move(argv)), endpoints_(std::move(endpoints)) {
    reopen_attempts = std::max(1, EffectiveNetReconnects());
    backoff_ms = EffectiveNetBackoffMs();
    backoff_max_ms = EffectiveNetBackoffMaxMs();
  }

  std::string Describe(std::size_t slot) const override {
    return "daemon " + endpoints_[slot].first + ":" +
           std::to_string(endpoints_[slot].second);
  }
  bool Open(std::size_t slot, WorkerIo* io, std::string* why) override;
  // The worker is the daemon's child, not ours: it reads EOF at its next
  // read, after at most the task in hand, and exits (net_daemon.h).
  void Abort(WorkerIo* io) override {
    ::close(io->fd);
    *io = WorkerIo{};
  }

 private:
  const std::vector<std::string> argv_;
  const std::vector<std::pair<std::string, int>> endpoints_;
};

bool NetTransport::Open(std::size_t slot, WorkerIo* io, std::string* why) {
  const auto& [host, port] = endpoints_[slot];
  const int fd = ConnectWithTimeout(host, port, why);
  if (fd < 0) return false;

  // Hello: refuse a daemon speaking another protocol era before handing
  // it a command to exec. The receive timeout bounds each read; later
  // reads only follow a poll that reported input, so it never fires then.
  const timeval hello_timeout{kHelloTimeoutMs / 1000, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &hello_timeout,
               sizeof hello_timeout);
  FrameBuffer frames;
  Frame hello;
  std::string parse_error;
  Pump p;
  while ((p = PumpFrames(fd, &frames, &parse_error, [&](const Frame& f) {
            hello = f;
            return false;  // the first frame is all we wait for
          })) == Pump::kOpen) {
  }
  if (p != Pump::kStopped ||
      hello.type != static_cast<char>(FrameType::kHello) ||
      hello.index != kWireProtocolVersion) {
    if (p == Pump::kMalformed) {
      *why = "daemon handshake: " + parse_error;
    } else if (p == Pump::kClosed) {
      *why = "daemon closed or timed out during handshake";
    } else {
      *why = "daemon protocol mismatch (got version " +
             std::to_string(hello.index) + ", want " +
             std::to_string(kWireProtocolVersion) + ")";
    }
    ::close(fd);
    return false;
  }

  // Spawn the worker: this process's argv + --worker=<job>, environment
  // left to the daemon's host (remote machines size their own pools).
  const std::string spawn = EncodeFrame(static_cast<char>(FrameType::kSpawn),
                                        0, EncodeSpawnPayload(argv_, {}));
  if (!WriteAll(fd, spawn.data(), spawn.size())) {
    *why = "daemon connection lost sending spawn";
    ::close(fd);
    return false;
  }
  ReconnectCounter().Inc();
  obs::Log(obs::LogLevel::kInfo, "[exec] connected to %s",
           Describe(slot).c_str());
  *io = WorkerIo{-1, fd};
  return true;
}

class NetExecutor : public Executor {
 public:
  explicit NetExecutor(const ExecOptions& opts)
      : worker_argv_(opts.worker_argv),
        hosts_(opts.hosts) {}

  RunResult Run(std::size_t count, const TaskFn& fn,
                std::vector<std::string>* results) override {
    (void)fn;  // tasks are evaluated in remote worker processes, never here
    const std::size_t job = internal::ClaimJobNumber();
    if (count == 0) {
      results->clear();
      return RunResult{};
    }
    DISCO_TRACE_SPAN("exec.run.net");
    if (hosts_.empty()) {
      return RunResult{false, 0, false,
                       "net backend needs at least one --hosts= daemon "
                       "endpoint"};
    }
    std::vector<std::pair<std::string, int>> endpoints(hosts_.size());
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      if (!ParseHostPort(hosts_[i], &endpoints[i].first,
                         &endpoints[i].second)) {
        return RunResult{false, 0, false,
                         "bad --hosts entry \"" + hosts_[i] +
                             "\" (want host:port)"};
      }
    }
    std::vector<std::string> argv = worker_argv_;
    argv.push_back(WorkerFlag(job));
    NetTransport transport(std::move(argv), std::move(endpoints));
    return Coordinate(transport, hosts_.size(), count, results);
  }

 private:
  const std::vector<std::string> worker_argv_;
  const std::vector<std::string> hosts_;
};

}  // namespace

std::unique_ptr<Executor> MakeNetExecutor(const ExecOptions& opts) {
  return std::make_unique<NetExecutor>(opts);
}

}  // namespace disco::exec
