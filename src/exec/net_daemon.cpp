#include "exec/net_daemon.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "exec/exec_internal.h"
#include "exec/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace disco::exec {
namespace {

// Daemon registry counters ("[metrics] workerd:" dump line, emitted on
// SIGUSR1 and at clean shutdown).
struct DaemonMetrics {
  obs::Counter& connections;
  obs::Counter& spawns;
  obs::Counter& frames_relayed;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;

  DaemonMetrics()
      : connections(obs::Global().RegisterCounter(
            "disco_workerd_connections_total",
            "Coordinator connections accepted", "workerd", "connections")),
        spawns(obs::Global().RegisterCounter(
            "disco_workerd_spawns_total", "Worker processes spawned",
            "workerd", "spawns")),
        frames_relayed(obs::Global().RegisterCounter(
            "disco_workerd_frames_relayed_total",
            "Wire frames relayed in either direction", "workerd",
            "frames_relayed")),
        bytes_in(obs::Global().RegisterCounter(
            "disco_workerd_bytes_in_total", "Bytes read from coordinators",
            "workerd", "bytes_in")),
        bytes_out(obs::Global().RegisterCounter(
            "disco_workerd_bytes_out_total", "Bytes written to coordinators",
            "workerd", "bytes_out")) {}
};

DaemonMetrics& Metrics() {
  static DaemonMetrics* m = new DaemonMetrics;
  return *m;
}

// Signal flags, set by handlers and consumed by the poll loop (the
// handlers are installed without SA_RESTART, so poll wakes with EINTR).
volatile std::sig_atomic_t g_dump_requested = 0;
volatile std::sig_atomic_t g_shutdown_requested = 0;

void OnSigusr1(int) { g_dump_requested = 1; }
void OnShutdownSignal(int) { g_shutdown_requested = 1; }

// Counts whole wire frames inside a verbatim relay stream without
// buffering it: accumulate a frame header, read its payload length, skip
// that many bytes, repeat. Frames split across reads are handled by
// carrying the state in the session.
struct RelayTally {
  std::string header;          // partial frame header bytes
  std::uint64_t remaining = 0; // payload bytes left in the current frame

  void Feed(const char* data, std::size_t n) {
    while (n > 0) {
      if (remaining > 0) {
        const std::size_t skip =
            static_cast<std::size_t>(std::min<std::uint64_t>(remaining, n));
        data += skip;
        n -= skip;
        remaining -= skip;
        continue;
      }
      const std::size_t take = std::min(kFrameHeaderBytes - header.size(), n);
      header.append(data, take);
      data += take;
      n -= take;
      if (header.size() < kFrameHeaderBytes) return;
      remaining = FramePayloadLength(header.data());
      header.clear();
      Metrics().frames_relayed.Inc();
    }
  }
};

// One coordinator connection = one worker slot.
struct Session {
  int tcp_fd = -1;
  FrameBuffer frames;   // parsed only until the kSpawn frame arrives
  bool spawned = false;
  bool tcp_eof = false;  // coordinator half-closed (graceful goodbye)
  WorkerIo worker;       // task frames in, result frames out
  RelayTally tally_in;   // frame counting, coordinator -> worker
  RelayTally tally_out;  // frame counting, worker -> coordinator
};

void Teardown(Session* s) {
  // The worker may be mid-task (its coordinator failed the run or lost
  // the connection); tasks are pure, so killing loses nothing.
  KillWorker(&s->worker);
  if (s->tcp_fd >= 0) ::close(s->tcp_fd);
  s->tcp_fd = -1;
}

// Pre-spawn frame handling: everything up to (and including) kSpawn is
// parsed; bytes behind the spawn frame are relayed to the fresh worker.
// The worker is started by the same SpawnWorker (coordinator.cpp) the
// procs backend forks with — same fd plumbing, same dup2/O_CLOEXEC
// handling — with the spawn frame's env entries layered over the
// daemon's environment. Returns false when the session must be torn down.
bool HandlePreSpawnBytes(Session* s) {
  Frame f;
  std::string parse_error;
  const FrameBuffer::Status st = s->frames.Next(&f, &parse_error);
  if (st == FrameBuffer::Status::kNeedMore) return true;
  if (st == FrameBuffer::Status::kMalformed) {
    std::fprintf(stderr, "disco_workerd: malformed frame from "
                         "coordinator: %s\n", parse_error.c_str());
    return false;
  }
  if (f.type != static_cast<char>(FrameType::kSpawn)) {
    std::fprintf(stderr, "disco_workerd: expected a spawn frame, got "
                         "'%c'\n", f.type);
    return false;
  }
  std::vector<std::string> argv, env;
  if (!ParseSpawnPayload(f.payload, &argv, &env)) {
    std::fprintf(stderr, "disco_workerd: unparseable spawn payload\n");
    return false;
  }
  std::string error;
  if (!SpawnWorker(argv, env, &s->worker, &error)) {
    std::fprintf(stderr, "disco_workerd: cannot spawn worker: %s\n",
                 error.c_str());
    return false;
  }
  s->spawned = true;
  Metrics().spawns.Inc();
  obs::TracePoint("workerd.spawn");
  const std::string rest = s->frames.TakeBuffered();
  return rest.empty() ||
         WriteAll(s->worker.task_fd, rest.data(), rest.size());
}

}  // namespace

bool ParseHostPort(const std::string& spec, std::string* host, int* port,
                   bool allow_port_zero) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return false;
  }
  const std::string port_str = spec.substr(colon + 1);
  char* end = nullptr;
  errno = 0;
  const long p = std::strtol(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || errno == ERANGE ||
      p < (allow_port_zero ? 0 : 1) || p > 65535) {
    return false;
  }
  *host = spec.substr(0, colon);
  *port = static_cast<int>(p);
  return true;
}

int RunWorkerDaemon(const DaemonOptions& opts) {
  // A coordinator that vanishes mid-write must surface as EPIPE on the
  // relay path, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  // Register the daemon's series up front so a SIGUSR1 dump on an idle
  // daemon shows the zeroed "[metrics] workerd:" line rather than nothing.
  (void)Metrics();

  // SIGUSR1 dumps the metrics registry; SIGTERM/SIGINT request a clean
  // shutdown (metrics dump + trace flush via atexit). No SA_RESTART: the
  // blocking poll must wake with EINTR so the loop notices the flag.
  struct sigaction sa{};
  sa.sa_handler = OnSigusr1;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGUSR1, &sa, nullptr);
  sa.sa_handler = OnShutdownSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(opts.port);
  const int gai = ::getaddrinfo(opts.host.c_str(), port_str.c_str(),
                                &hints, &res);
  if (gai != 0) {
    std::fprintf(stderr, "disco_workerd: cannot resolve %s:%d: %s\n",
                 opts.host.c_str(), opts.port, ::gai_strerror(gai));
    return 1;
  }
  int listen_fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    listen_fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                         ai->ai_protocol);
    if (listen_fd < 0) continue;
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(listen_fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(listen_fd);
    listen_fd = -1;
  }
  ::freeaddrinfo(res);
  if (listen_fd < 0 || ::listen(listen_fd, 16) != 0) {
    std::fprintf(stderr, "disco_workerd: cannot listen on %s:%d: %s\n",
                 opts.host.c_str(), opts.port, std::strerror(errno));
    if (listen_fd >= 0) ::close(listen_fd);
    return 1;
  }

  // Report the actual port (the kernel picks one for --listen=host:0);
  // launchers parse this line.
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof bound;
  int actual_port = opts.port;
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    if (bound.ss_family == AF_INET) {
      actual_port = static_cast<int>(
          ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port));
    } else if (bound.ss_family == AF_INET6) {
      actual_port = static_cast<int>(
          ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port));
    }
  }
  std::printf("disco_workerd listening on %s:%d\n", opts.host.c_str(),
              actual_port);
  std::fflush(stdout);

  std::vector<Session> sessions;
  for (;;) {
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      std::fputs(obs::Global().DumpText().c_str(), stderr);
    }
    if (g_shutdown_requested != 0) {
      // Clean shutdown: kill and reap workers, dump the registry, flush
      // the trace (registered atexit when --trace= configured it).
      for (Session& s : sessions) Teardown(&s);
      sessions.clear();
      ::close(listen_fd);
      std::fputs(obs::Global().DumpText().c_str(), stderr);
      return 0;
    }
    std::vector<pollfd> fds;
    fds.push_back({listen_fd, POLLIN, 0});
    // fds[1 + 2k] is session k's TCP side, fds[1 + 2k + 1] its worker
    // output (negative fd entries are ignored by poll). A half-closed
    // coordinator (tcp_eof) stops being polled — reading it would spin on
    // the persistent EOF while its worker finishes its goodbye.
    for (Session& s : sessions) {
      fds.push_back({s.tcp_eof ? -1 : s.tcp_fd, POLLIN, 0});
      fds.push_back({s.spawned ? s.worker.frame_fd : -1, POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "disco_workerd: poll: %s\n",
                   std::strerror(errno));
      ::close(listen_fd);
      return 1;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      const int conn = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (conn >= 0) {
        Session s;
        s.tcp_fd = conn;
        const std::string hello =
            EncodeFrame(static_cast<char>(FrameType::kHello),
                        kWireProtocolVersion, "disco_workerd");
        if (WriteAll(conn, hello.data(), hello.size())) {
          Metrics().connections.Inc();
          Metrics().bytes_out.Add(hello.size());
          obs::TracePoint("workerd.accept");
          sessions.push_back(std::move(s));
        } else {
          ::close(conn);
        }
      }
    }

    // Only the sessions that existed when `fds` was built have poll
    // entries — a connection accepted above joins next round.
    const std::size_t polled = (fds.size() - 1) / 2;
    for (std::size_t k = 0; k < polled; ++k) {
      Session& s = sessions[k];
      bool dead = false;
      const short tcp_ev = fds[1 + 2 * k].revents;
      const short child_ev = fds[1 + 2 * k + 1].revents;

      if ((tcp_ev & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char chunk[65536];
        const ssize_t n = ::read(s.tcp_fd, chunk, sizeof chunk);
        if (n > 0) {
          Metrics().bytes_in.Add(static_cast<std::uint64_t>(n));
          if (s.spawned) {
            // Relay verbatim: these are task frames for the worker.
            s.tally_in.Feed(chunk, static_cast<std::size_t>(n));
            if (!WriteAll(s.worker.task_fd, chunk,
                          static_cast<std::size_t>(n))) {
              dead = true;  // worker gone; close so the coordinator retries
            }
          } else {
            s.frames.Append(chunk, static_cast<std::size_t>(n));
            if (!HandlePreSpawnBytes(&s)) dead = true;
          }
        } else if (n == 0) {
          if (s.spawned) {
            // Graceful goodbye: the coordinator half-closed after its run
            // finished. Pass the EOF on as worker-stdin EOF — the worker
            // answers with one kObs frame (trace sidecar + metrics) that
            // still relays back over our open write side — and wait for
            // the worker to exit before closing the connection.
            if (s.worker.task_fd >= 0) {
              ::close(s.worker.task_fd);
              s.worker.task_fd = -1;
            }
            s.tcp_eof = true;
          } else {
            dead = true;  // coordinator left before spawning anything
          }
        } else if (errno != EINTR) {
          dead = true;  // connection reset
        }
      }

      if (!dead && s.spawned &&
          (child_ev & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char chunk[65536];
        const ssize_t n = ::read(s.worker.frame_fd, chunk, sizeof chunk);
        if (n > 0) {
          // Relay verbatim: result frames for the coordinator.
          s.tally_out.Feed(chunk, static_cast<std::size_t>(n));
          if (!WriteAll(s.tcp_fd, chunk, static_cast<std::size_t>(n))) {
            dead = true;
          } else {
            Metrics().bytes_out.Add(static_cast<std::uint64_t>(n));
          }
        } else if (n == 0 || errno != EINTR) {
          // Worker exited (crash, SIGKILL, clean death). Closing the
          // connection is the signal the coordinator's failure policy
          // feeds on: it charges the in-flight task and reconnects,
          // which spawns a fresh worker here.
          dead = true;
        }
      }

      if (dead) {
        Teardown(&s);
        sessions.erase(sessions.begin() +
                       static_cast<std::ptrdiff_t>(k));
        // fds indexes are stale for the remaining sessions this round;
        // the next poll rebuilds them. Skip to it.
        break;
      }
    }
  }
}

}  // namespace disco::exec
