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
#   3. a cold `disco_store build --topo=geo` must publish the snapshot
#      into the store, and a warm `build --graph=<its fingerprint>` with
#      the same seed must mmap it back with ZERO generator work (stderr
#      graph-source counters: generated=0 mmap=1 decode=0), report the
#      same fingerprint and find every landmark tree present (built=0).
#   usage: graph_smoke.sh <disco_graphbench> <disco_store>
set -euo pipefail

GRAPHBENCH_BIN="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
STORE_BIN="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
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

# 3. Cold build from the generator, then a warm build from the stored
#    snapshot's fingerprint (small n to stay in the smoke budget; the flow
#    is scale-independent).
"$STORE_BIN" build --store="$dir/store" --topo=geo --n=20000 --seed=5 \
    > "$dir/cold.txt" 2> "$dir/cold.err"
fp="$(sed -n 's/^graph fingerprint: \([0-9a-f]*\)$/\1/p' "$dir/cold.txt")"
if [ -z "$fp" ]; then
  echo "graph_smoke: cold build printed no graph fingerprint:" >&2
  cat "$dir/cold.txt" >&2
  exit 1
fi
"$STORE_BIN" build --store="$dir/store" --graph="$fp" --seed=5 \
    > "$dir/warm.txt" 2> "$dir/warm.err"
if ! grep -q "^graph fingerprint: $fp\$" "$dir/warm.txt"; then
  echo "graph_smoke: warm fingerprint differs from cold ($fp)" >&2
  cat "$dir/warm.txt" >&2
  exit 1
fi
if ! grep -q '^built=0 present=[1-9]' "$dir/warm.txt"; then
  echo "graph_smoke: warm build recomputed landmark trees:" >&2
  cat "$dir/warm.txt" >&2
  exit 1
fi
# Zero generator work on the warm run, and the graph arrived via mmap.
grep -q 'sources: generated=0 mmap=1 decode=0' "$dir/warm.err" || {
  echo "graph_smoke: warm build still generated (or decoded):" >&2
  cat "$dir/warm.err" >&2
  exit 1
}

echo "graph_smoke: ok"
