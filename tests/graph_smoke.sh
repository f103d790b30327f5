#!/usr/bin/env bash
# CI smoke for the out-of-core graph pipeline, end to end through the
# binaries:
#   1. disco_graphbench at n=10^5 runs the full cycle — generate,
#      snapshot-encode, decode, save, mmap reload, spot-route — and its
#      three self-checks (fingerprint, bit-identical Dijkstras over the
#      borrowed view, and mmap load at least 2x faster than generate)
#      must print OK,
#   2. peak RSS of that run must stay under a generous ceiling — a
#      regression that materializes adjacency copies at graph scale
#      shows up here long before the million-node runs,
#   3. a fig09 --xl cold run must publish the snapshot into the store
#      and the warm re-run must mmap it back with ZERO generator work
#      (stderr [graph] counters: generated=0, mmap=1) and report the
#      same fingerprint.
#   usage: graph_smoke.sh <disco_graphbench> <fig09_scaling>
set -euo pipefail

GRAPHBENCH_BIN="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
FIG09_BIN="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
dir="$(mktemp -d)"
cleanup() { cd / && rm -rf "$dir"; }
trap cleanup EXIT
cd "$dir"

# 1. Full pipeline at n=10^5. The binary itself exits non-zero if a
#    self-check fails; grep anyway so a silent early exit cannot pass.
"$GRAPHBENCH_BIN" --n=100000 --seed=3 --out="$dir" > "$dir/bench.txt"
grep -q '^self-check fingerprint: OK$' "$dir/bench.txt" || {
  echo "graph_smoke: fingerprint self-check did not pass:" >&2
  cat "$dir/bench.txt" >&2
  exit 1
}
grep -q '^self-check spot-routes: OK$' "$dir/bench.txt" || {
  echo "graph_smoke: spot-route self-check did not pass:" >&2
  cat "$dir/bench.txt" >&2
  exit 1
}
grep -q '^self-check mmap-speedup: OK$' "$dir/bench.txt" || {
  echo "graph_smoke: mmap-speedup self-check did not pass:" >&2
  cat "$dir/bench.txt" >&2
  exit 1
}

# 2. Peak-RSS guard: n=10^5 needs tens of MB of CSR; a 1 GB ceiling only
#    trips on wholesale duplication of the graph at scale.
rss_kb="$(awk '/^peak rss:/ { print $3 }' "$dir/bench.txt")"
if [ -z "$rss_kb" ] || [ "$rss_kb" -le 0 ]; then
  echo "graph_smoke: no peak rss line in bench output" >&2
  exit 1
fi
if [ "$rss_kb" -gt 1000000 ]; then
  echo "graph_smoke: peak RSS ${rss_kb} KB exceeds the 1 GB guard" >&2
  exit 1
fi

# 3. Cold then warm fig09 --xl against the same store (small n to stay in
#    the smoke budget; the flow is scale-independent).
"$FIG09_BIN" --xl --n=30000 --seed=5 --store="$dir/store" --out="$dir" \
    > "$dir/cold.txt" 2> "$dir/cold.err"
grep -q '^mode=cold ' "$dir/cold.txt"
"$FIG09_BIN" --xl --n=30000 --seed=5 --store="$dir/store" --out="$dir" \
    > "$dir/warm.txt" 2> "$dir/warm.err"
grep -q '^mode=warm ' "$dir/warm.txt" || {
  echo "graph_smoke: second --xl run did not go warm:" >&2
  cat "$dir/warm.txt" >&2
  exit 1
}
# Zero generator work on the warm run, and the graph arrived via mmap.
grep -q 'sources: generated=0 mmap=1 decode=0' "$dir/warm.err" || {
  echo "graph_smoke: warm --xl run still generated (or decoded):" >&2
  cat "$dir/warm.err" >&2
  exit 1
}
fp_cold="$(grep -o 'fingerprint=[0-9a-f]*' "$dir/cold.txt")"
fp_warm="$(grep -o 'fingerprint=[0-9a-f]*' "$dir/warm.txt")"
if [ -z "$fp_cold" ] || [ "$fp_cold" != "$fp_warm" ]; then
  echo "graph_smoke: warm fingerprint differs from cold" >&2
  exit 1
fi

echo "graph_smoke: ok"
