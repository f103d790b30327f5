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
#include "obs/metrics.h"

namespace disco::exec {
namespace {

// Daemon registry counters ("[metrics] workerd:" dump line, emitted on
// SIGUSR1 and at clean shutdown).
struct DaemonMetrics {
  obs::Counter& connections;
  obs::Counter& spawns;

  DaemonMetrics()
      : connections(obs::Global().RegisterCounter(
            "disco_workerd_connections_total",
            "Coordinator connections accepted", "workerd", "connections")),
        spawns(obs::Global().RegisterCounter(
            "disco_workerd_spawns_total", "Worker processes spawned",
            "workerd", "spawns")) {}
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

// A connection between accept and its kSpawn frame, with the frame's
// bytes read so far.
struct Pending {
  int fd = -1;
  std::string bytes;
};

// Reads the next slice of a connection's kSpawn frame, and never a byte
// past it: whatever follows (task frames the coordinator pipelined) is
// the worker's to read from the same socket. A header is checked (magic,
// type, length bound) as soon as it is complete, before its length sizes
// the next read. kOpen while the frame is incomplete, kStopped once *out
// holds it, kClosed on EOF or a read error, kMalformed on a bad header.
Pump ReadSpawnFrame(Pending* p, Frame* out, std::string* error) {
  std::size_t want = kFrameHeaderBytes;
  if (p->bytes.size() >= kFrameHeaderBytes) {
    want += static_cast<std::size_t>(FramePayloadLength(p->bytes.data()));
  }
  char chunk[65536];
  const ssize_t n = ::read(p->fd, chunk,
                           std::min(sizeof chunk, want - p->bytes.size()));
  if (n < 0 && errno == EINTR) return Pump::kOpen;
  if (n <= 0) return Pump::kClosed;
  p->bytes.append(chunk, static_cast<std::size_t>(n));
  FrameBuffer frames;
  frames.Append(p->bytes.data(), p->bytes.size());
  switch (frames.Next(out, error)) {
    case FrameBuffer::Status::kNeedMore:
      return Pump::kOpen;
    case FrameBuffer::Status::kFrame:
      return Pump::kStopped;
    case FrameBuffer::Status::kMalformed:
      break;
  }
  return Pump::kMalformed;
}

// Starts the worker on the connection itself, with the same SpawnWorker
// (coordinator.cpp) the procs backend forks with and the spawn frame's
// env entries layered over the daemon's environment. The caller closes
// its copy of the connection either way.
void SpawnOnConnection(int fd, const Frame& f) {
  if (f.type != static_cast<char>(FrameType::kSpawn)) {
    std::fprintf(stderr, "disco_workerd: expected a spawn frame, got "
                         "'%c'\n", f.type);
    return;
  }
  std::vector<std::string> argv, env;
  if (!ParseSpawnPayload(f.payload, &argv, &env)) {
    std::fprintf(stderr, "disco_workerd: unparseable spawn payload\n");
    return;
  }
  std::string error;
  if (SpawnWorker(argv, env, fd, &error) < 0) {
    std::fprintf(stderr, "disco_workerd: cannot spawn worker: %s\n",
                 error.c_str());
    return;
  }
  Metrics().spawns.Inc();
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
  // A coordinator that vanishes before its hello is written must surface
  // as EPIPE, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  // Register the daemon's series up front so a SIGUSR1 dump on an idle
  // daemon shows the zeroed "[metrics] workerd:" line rather than nothing.
  (void)Metrics();

  // SIGUSR1 dumps the metrics registry; SIGTERM/SIGINT request a clean
  // shutdown. No SA_RESTART: the blocking poll must wake with EINTR so the
  // loop notices the flag.
  struct sigaction sa{};
  sa.sa_handler = OnSigusr1;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGUSR1, &sa, nullptr);
  sa.sa_handler = OnShutdownSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  // The kernel reaps exited workers (SA_NOCLDWAIT): the daemon never
  // waits on one, and none lingers as a zombie.
  sa.sa_handler = SIG_DFL;
  sa.sa_flags = SA_NOCLDWAIT;
  ::sigaction(SIGCHLD, &sa, nullptr);

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

  std::vector<Pending> pending;
  for (;;) {
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      std::fputs(obs::Global().DumpText().c_str(), stderr);
    }
    if (g_shutdown_requested != 0) {
      // Clean shutdown. Running workers die with the daemon (SpawnWorker's
      // PR_SET_PDEATHSIG).
      for (const Pending& p : pending) ::close(p.fd);
      ::close(listen_fd);
      std::fputs(obs::Global().DumpText().c_str(), stderr);
      return 0;
    }
    std::vector<pollfd> fds;
    fds.push_back({listen_fd, POLLIN, 0});
    for (const Pending& p : pending) fds.push_back({p.fd, POLLIN, 0});
    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "disco_workerd: poll: %s\n",
                   std::strerror(errno));
      ::close(listen_fd);
      return 1;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      // SOCK_CLOEXEC: only the worker spawned on a connection may hold
      // it, or its coordinator would never see EOF when that worker dies.
      const int conn = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (conn >= 0) {
        const std::string hello =
            EncodeFrame(static_cast<char>(FrameType::kHello),
                        kWireProtocolVersion, "disco_workerd");
        if (WriteAll(conn, hello.data(), hello.size())) {
          Metrics().connections.Inc();
          pending.push_back(Pending{conn, ""});
        } else {
          ::close(conn);
        }
      }
    }

    // fds[1 + k] is pending[k]; a connection accepted above was appended
    // and joins the next poll.
    for (std::size_t k = 0; k + 1 < fds.size(); ++k) {
      if ((fds[1 + k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Pending& p = pending[k];
      Frame f;
      std::string error;
      const Pump status = ReadSpawnFrame(&p, &f, &error);
      if (status == Pump::kOpen) continue;
      if (status == Pump::kMalformed) {
        std::fprintf(stderr, "disco_workerd: malformed frame from "
                             "coordinator: %s\n", error.c_str());
      }
      if (status == Pump::kStopped) SpawnOnConnection(p.fd, f);
      // Handed to the worker, or given up on: the daemon is done with it.
      ::close(p.fd);
      p.fd = -1;
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [](const Pending& p) { return p.fd < 0; }),
                  pending.end());
  }
}

}  // namespace disco::exec
