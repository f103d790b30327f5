#!/usr/bin/env bash
# CI smoke for the network executor backend (--backend=net):
#   1. two localhost disco_workerd daemons (kernel-assigned ports) serve a
#      quick fig04 run that must be byte-identical — stdout and TSVs — to
#      the in-process --backend=threads run;
#   2. a disco_sweep mini-grid through the same two daemons must produce
#      a sweep.tsv byte-identical to the in-process run;
#   3. a traced fig04 run through the same daemons, each launched from
#      its own subdirectory (a stand-in for another host), with a relative
#      --trace=: the workers' spans come home over their connections, so
#      the one trace must validate and span >= 3 pids;
#   4. one daemon is SIGKILLed mid-run: the fig04 run must still finish
#      on the surviving daemon without changing a byte (the in-flight
#      task is charged one retry and rescheduled).
# Daemons and scratch files are torn down by the EXIT trap on every path.
#   usage: net_smoke.sh <disco_workerd> <fig04_gnm1024> <disco_sweep>
#                       <disco_tracecat>
set -euo pipefail

WORKERD="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
FIG04="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
SWEEP="$(cd "$(dirname "$3")" && pwd)/$(basename "$3")"
TRACECAT="$(cd "$(dirname "$4")" && pwd)/$(basename "$4")"
dir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    [ -n "$pid" ] && kill -9 "$pid" 2> /dev/null || true
  done
  cd / && rm -rf "$dir"
}
trap cleanup EXIT
cd "$dir"

# Launch a daemon on a kernel-assigned port from its own directory $1,
# logging to $1/log (pid lands in `pids`); the endpoint is parsed from its
# startup line separately, because a $(...) capture would grow the array
# in a throwaway subshell.
start_daemon() {
  mkdir -p "$1"
  (cd "$1" && exec "$WORKERD" --listen=127.0.0.1:0 > log 2>&1) &
  pids+=($!)
  disown $!  # keep bash's "Killed" job notices out of the test log
}
endpoint_of() {
  for _ in $(seq 100); do
    if grep -q 'listening on' "$1"; then break; fi
    sleep 0.05
  done
  sed -n 's/.*listening on //p' "$1" | head -n1
}

start_daemon "$dir/d1"
start_daemon "$dir/d2"
host1="$(endpoint_of "$dir/d1/log")"
host2="$(endpoint_of "$dir/d2/log")"
if [ -z "$host1" ] || [ -z "$host2" ]; then
  echo "net_smoke: daemons failed to start" >&2
  exit 1
fi

# 1. fig04 through the daemons vs in-process.
"$FIG04" --quick --backend=threads --out="$dir/thr" > "$dir/thr.out"
"$FIG04" --quick --backend=net --hosts="$host1,$host2" \
  --out="$dir/net" > "$dir/net.out"
if ! cmp "$dir/thr.out" "$dir/net.out" || ! diff -r "$dir/thr" "$dir/net" > /dev/null; then
  echo "net_smoke: net backend fig04 output differs from threads" >&2
  exit 1
fi

# 2. sweep mini-grid through the daemons vs in-process.
"$SWEEP" --quick --backend=threads --out="$dir/s_thr" > /dev/null
"$SWEEP" --quick --backend=net --hosts="$host1,$host2" \
  --out="$dir/s_net" > /dev/null
if ! cmp "$dir/s_thr/sweep.tsv" "$dir/s_net/sweep.tsv"; then
  echo "net_smoke: net backend sweep.tsv differs from threads" >&2
  exit 1
fi
rows=$(grep -cv -e '^#' -e '^cell	' "$dir/s_thr/sweep.tsv")

# 3. traced run with a relative --trace=: the daemons' directories differ
# from ours, yet the worker spans must reach our one trace file.
"$FIG04" --quick --backend=net --hosts="$host1,$host2" \
  --out="$dir/traced" --trace=net.trace.json > "$dir/traced.out"
if ! cmp "$dir/thr.out" "$dir/traced.out"; then
  echo "net_smoke: traced net fig04 output differs from threads" >&2
  exit 1
fi
"$TRACECAT" validate "$dir/net.trace.json" > /dev/null
trace_pids=$(grep -o '"pid":[0-9]*' "$dir/net.trace.json" | sort -u | wc -l)
if [ "$trace_pids" -lt 3 ]; then
  echo "net_smoke: net trace has $trace_pids pid(s); expected >= 3" >&2
  exit 1
fi

# 4. failover: SIGKILL daemon 2 shortly after the run starts; the run must
# finish on daemon 1 with byte-identical output. Short backoff keeps the
# abandoned endpoint from stretching the run.
export DISCO_EXEC_NET_BACKOFF_MS=20
export DISCO_EXEC_NET_BACKOFF_MAX_MS=200
export DISCO_EXEC_NET_RECONNECTS=2
"$FIG04" --quick --backend=net --hosts="$host1,$host2" \
  --out="$dir/failover" > "$dir/failover.out" &
run_pid=$!
sleep 0.4
kill -9 "${pids[1]}" 2> /dev/null || true
if ! wait "$run_pid"; then
  echo "net_smoke: fig04 run failed after daemon SIGKILL" >&2
  exit 1
fi
if ! cmp "$dir/thr.out" "$dir/failover.out" || ! diff -r "$dir/thr" "$dir/failover" > /dev/null; then
  echo "net_smoke: output changed after mid-run daemon SIGKILL" >&2
  exit 1
fi

echo "net_smoke OK: fig04 and $rows sweep cells byte-identical over 2" \
     "daemons, incl. after a mid-run daemon SIGKILL; $trace_pids processes" \
     "in the net trace"
