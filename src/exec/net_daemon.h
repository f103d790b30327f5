// disco_workerd: the per-host worker daemon of the network executor
// backend (--backend=net).
//
// A daemon listens on one TCP endpoint and serves any number of
// concurrent coordinator connections. Each connection is one worker slot:
// on accept the daemon sends a kHello frame (protocol version), reads
// exactly the coordinator's kSpawn frame — never a byte past it — naming
// the worker argv (the coordinator's own command line plus
// --worker=<job>, exactly the re-invocation the procs backend forks
// locally), and starts it with the same SpawnWorker the procs backend
// uses, on the accepted socket itself: the connection becomes the
// worker's stdin and fd 3, as a socketpair end does under procs. The
// daemon then closes its copy and is out of the data path: task and
// result frames (exec/wire.h), any task frames the coordinator pipelined
// behind kSpawn included, pass between coordinator and worker directly.
// Exited workers are reaped by the kernel.
//
// Lifecycle: when the worker exits (task crash, SIGKILL, clean exit), its
// connection closes with it — the coordinator sees the loss, charges the
// in-flight task, and reconnects with backoff, at which point the daemon
// spawns a fresh worker. The coordinator's goodbye is shutdown(SHUT_WR):
// the worker reads EOF, answers with one kObs frame (its trace + metrics)
// and exits. A coordinator that hard-closes a slot does not get the
// worker killed at once: the worker sees EOF at its next read, after at
// most the task in hand, and exits the same way (tasks are pure, so the
// late answer is harmless). Workers die with the daemon (PR_SET_PDEATHSIG),
// so a SIGKILLed daemon is a lost host: its connections close and each
// in-flight task costs one retry on the surviving daemons. The daemon
// runs until killed; SIGUSR1 dumps its metrics registry to stderr,
// SIGTERM/SIGINT shut it down cleanly (metrics dump, workers killed).
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

/// Runs the daemon's accept/spawn loop; returns a process exit code on a
/// fatal setup error (bind failure etc.) or a clean SIGTERM/SIGINT
/// shutdown.
int RunWorkerDaemon(const DaemonOptions& opts);

/// Splits "host:port" (the --listen= / --hosts= syntax; the last ':'
/// separates the port so bracketless IPv6 still fails loudly rather than
/// silently). Returns false on a missing host, missing port, or a port
/// outside 1..65535 (0 allowed only when `allow_port_zero`).
bool ParseHostPort(const std::string& spec, std::string* host, int* port,
                   bool allow_port_zero = false);

}  // namespace disco::exec
