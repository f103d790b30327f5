#!/usr/bin/env bash
# CI smoke for the observability layer, end to end through the binaries:
#   1. a trace-off bench run (the byte-level reference),
#   2. the same run with --trace= must print byte-identical stdout and
#      TSVs (tracing is determinism-neutral) while writing a Chrome trace
#      that disco_tracecat validates and summarizes,
#   3. a --backend=procs run with --trace= must merge the traces its
#      workers send home into one valid timeline spanning >= 2 pids, again
#      byte-identical; run twice into the same path, it must give the same
#      pid count both times and leave no file but that path in its
#      directory,
#   4. disco_tracecat merge must combine the two traces into one valid
#      timeline.
#   usage: trace_smoke.sh <path-to-fig04_gnm1024> <path-to-disco_tracecat>
set -euo pipefail

BENCH_BIN="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
TRACECAT_BIN="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
dir="$(mktemp -d)"
cleanup() { cd / && rm -rf "$dir"; }
trap cleanup EXIT
cd "$dir"

bench_flags=(--quick --schemes=disco,s4 --seed=3)

# 1. Reference run, tracing off.
"$BENCH_BIN" "${bench_flags[@]}" --out="$dir/base" \
    > "$dir/base.txt" 2> "$dir/base.err"

# 2. Traced run (thread backend): identical bytes, valid trace.
"$BENCH_BIN" "${bench_flags[@]}" --out="$dir/tr" \
    --trace="$dir/run.trace.json" \
    > "$dir/tr.txt" 2> "$dir/tr.err"
if ! cmp "$dir/base.txt" "$dir/tr.txt"; then
  echo "trace_smoke: --trace= changed stdout" >&2
  exit 1
fi
for f in "$dir"/base/*.tsv; do
  if ! cmp "$f" "$dir/tr/$(basename "$f")"; then
    echo "trace_smoke: --trace= changed TSV $(basename "$f")" >&2
    exit 1
  fi
done
test -s "$dir/run.trace.json"
"$TRACECAT_BIN" validate "$dir/run.trace.json" > "$dir/validate.txt"
grep -q ': ok (' "$dir/validate.txt"
"$TRACECAT_BIN" summary "$dir/run.trace.json" > "$dir/summary.txt"
if ! grep -q 'exec.task' "$dir/summary.txt"; then
  echo "trace_smoke: summary is missing the exec.task span:" >&2
  cat "$dir/summary.txt" >&2
  exit 1
fi

# 3. Procs backend: identical bytes, and the merged timeline must span
#    the driver plus at least one worker process. The trace gets its own
#    directory; two runs into one path must neither merge each other's
#    spans nor leave any other file there.
mkdir "$dir/ptrace"
procs_trace="$dir/ptrace/procs.trace.json"
pid_counts=()
for run in 1 2; do
  "$BENCH_BIN" "${bench_flags[@]}" --out="$dir/procs" \
      --backend=procs --workers=2 --trace="$procs_trace" \
      > "$dir/procs.txt" 2> "$dir/procs.err"
  if ! cmp "$dir/base.txt" "$dir/procs.txt"; then
    echo "trace_smoke: traced procs run stdout differs from baseline" >&2
    exit 1
  fi
  for f in "$dir"/base/*.tsv; do
    if ! cmp "$f" "$dir/procs/$(basename "$f")"; then
      echo "trace_smoke: traced procs TSV $(basename "$f") differs" >&2
      exit 1
    fi
  done
  "$TRACECAT_BIN" validate "$procs_trace" > /dev/null
  pid_counts[$run]=$(grep -o '"pid":[0-9]*' "$procs_trace" | sort -u | wc -l)
done
pids=${pid_counts[1]}
if [ "$pids" -lt 2 ]; then
  echo "trace_smoke: procs trace has $pids pid(s); expected >= 2" >&2
  exit 1
fi
if [ "${pid_counts[2]}" -ne "$pids" ]; then
  echo "trace_smoke: second procs trace has ${pid_counts[2]} pids," \
       "the first $pids" >&2
  exit 1
fi
if [ "$(ls -A "$dir/ptrace")" != "procs.trace.json" ]; then
  echo "trace_smoke: stray files next to the procs trace:" >&2
  ls -A "$dir/ptrace" >&2
  exit 1
fi

# 4. The toolchain merges multiple traces into one valid timeline.
"$TRACECAT_BIN" merge --out="$dir/merged.json" \
    "$dir/run.trace.json" "$procs_trace" > /dev/null
"$TRACECAT_BIN" validate "$dir/merged.json" > /dev/null

echo "trace_smoke OK: byte-identical with tracing on, $pids processes in the procs timeline"
