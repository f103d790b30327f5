#!/usr/bin/env bash
# CI smoke for the route-serving benchmark, end to end through the
# binaries:
#   1. the deterministic query stream (workload sha256 header,
#      destinations, phase schedule, per-stream served/failure tallies)
#      must be byte-identical across --threads=1 and a wide run, and
#      across repeated runs,
#   2. a warm start from a prebuilt artifact store must do zero landmark
#      Dijkstras (stderr counter),
#   3. malformed numeric flags (--n=10x, --n=, --seed=abc) and unknown
#      flags (--json=, --progress) must exit with a usage error, not run
#      with a silent garbage value.
#   usage: serve_smoke.sh <disco_serve> <disco_store>
set -euo pipefail

SERVE_BIN="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
STORE_BIN="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
dir="$(mktemp -d)"
cleanup() { cd / && rm -rf "$dir"; }
trap cleanup EXIT
cd "$dir"

flags=(--quick --n=512 --seed=7 --schemes=disco,spf --streams=8
       --queries=60 --flash --churn)

# 1. A single-thread run, a wide run and a repeat: the deterministic
#    stream artifacts must be byte-identical (only timings may differ).
"$SERVE_BIN" "${flags[@]}" --threads=1 \
    --dump-stream="$dir/one.stream" > "$dir/one.txt"
"$SERVE_BIN" "${flags[@]}" --threads=4 \
    --dump-stream="$dir/wide.stream" > "$dir/wide.txt"
if ! cmp "$dir/one.stream" "$dir/wide.stream"; then
  echo "serve_smoke: query stream differs between --threads=1 and 4" >&2
  exit 1
fi
"$SERVE_BIN" "${flags[@]}" --threads=4 \
    --dump-stream="$dir/again.stream" > "$dir/again.txt"
cmp "$dir/wide.stream" "$dir/again.stream"

# 2. Warm start: prebuild the store for the same topology policy, then a
#    --store= run must do zero landmark Dijkstras.
"$STORE_BIN" build --store="$dir/store" --topo=gnm --quick --n=512 \
    --seed=7 > "$dir/build.txt" 2>/dev/null
"$SERVE_BIN" "${flags[@]}" --threads=2 --store="$dir/store" \
    --dump-stream="$dir/warm.stream" > "$dir/warm.txt" 2> "$dir/warm.err"
cmp "$dir/one.stream" "$dir/warm.stream"
if ! grep -q 'dijkstra=0 ' "$dir/warm.err"; then
  echo "serve_smoke: warm start still ran landmark Dijkstras:" >&2
  cat "$dir/warm.err" >&2
  exit 1
fi

# 3. Malformed numeric flags must be usage errors (exit 2), not silent
#    garbage values — negative ("-1" must not wrap to 2^64-1) and
#    out-of-range ("--n" past NodeId must not truncate to 0) included.
#    --json= and --progress are not disco_serve flags either.
for bad in --n=10x --n= --seed=abc --samples=1e3 --seed=-1 --n=4294967296 \
    --samples=-5 --json=x --progress; do
  status=0
  "$SERVE_BIN" --quick "$bad" > /dev/null 2> "$dir/bad.err" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "serve_smoke: $bad exited $status instead of 2" >&2
    exit 1
  fi
  grep -q 'usage:' "$dir/bad.err" || {
    echo "serve_smoke: $bad died without a usage message" >&2
    exit 1
  }
done

echo "serve_smoke: ok"
