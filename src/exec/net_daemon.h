// disco_workerd: the per-host worker daemon of the network executor
// backend (--backend=net).
//
// A daemon listens on one TCP endpoint and serves any number of
// concurrent coordinator connections. Each connection is one worker slot:
// on accept the daemon sends a kHello frame (protocol version), waits for
// the coordinator's kSpawn frame naming the worker argv (the
// coordinator's own command line plus --worker=<job> — exactly the
// re-invocation the procs backend forks locally), starts it with the same
// SpawnWorker the procs backend uses (stdin = task frames, stdout =
// /dev/null, fd 3 = result frames), and from then on is a pure byte pump:
// TCP bytes to the worker's stdin, worker fd-3 bytes back to TCP. The
// shared binary framing (exec/wire.h) is what makes verbatim relay
// correct — the daemon never re-parses task or result frames. To the
// coordinator, a daemon connection is just the net transport's slot: the
// same loop drives it as a local worker's pipes.
//
// Lifecycle: when the worker exits (task crash, SIGKILL, clean EOF
// death), the daemon closes that connection — the coordinator sees the
// loss, charges the in-flight task, and reconnects with backoff, at which
// point the daemon spawns a fresh worker. A coordinator that half-closes
// (shutdown(SHUT_WR), the finished-run goodbye) gets the graceful path:
// the daemon passes the EOF to the worker's stdin, relays the worker's
// final kObs frame (trace sidecar path + metrics) back, and closes the
// connection once the worker exits. A full close still kills the worker
// outright. The daemon runs until killed; SIGUSR1 dumps its metrics
// registry to stderr, SIGTERM/SIGINT shut it down cleanly (teardown,
// metrics dump, trace flush). Losing a daemon mid-run only costs its
// in-flight tasks one retry each, on surviving daemons.
//
// Trust model: the daemon execs whatever argv a connecting coordinator
// sends. Run it only on hosts and networks where every peer may already
// run arbitrary commands as the daemon's user (a lab cluster, localhost
// test rigs) — it is a compute harness, not a security boundary.
#pragma once

#include <string>

namespace disco::exec {

struct DaemonOptions {
  /// Address to bind ("127.0.0.1", "0.0.0.0", a hostname).
  std::string host = "127.0.0.1";
  /// TCP port; 0 lets the kernel pick one. The daemon prints
  /// "disco_workerd listening on <host>:<port>" (with the actual port)
  /// to stdout once ready — test harnesses parse that line.
  int port = 0;
};

/// Runs the daemon's accept/relay loop; blocks until a fatal setup error
/// (bind failure etc.). Returns a process exit code.
int RunWorkerDaemon(const DaemonOptions& opts);

/// Splits "host:port" (the --listen= / --hosts= syntax; the last ':'
/// separates the port so bracketless IPv6 still fails loudly rather than
/// silently). Returns false on a missing host, missing port, or a port
/// outside 1..65535 (0 allowed only when `allow_port_zero`).
bool ParseHostPort(const std::string& spec, std::string* host, int* port,
                   bool allow_port_zero = false);

}  // namespace disco::exec
