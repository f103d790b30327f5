#!/usr/bin/env bash
# CI smoke for the artifact store tier, end to end through the binaries:
#   1. a storeless bench run (the byte-level reference),
#   2. `disco_store build` prebuilding the same topology's landmark trees
#      (built=<landmarks> present=0), then again as a no-op over the same
#      store (built=0 present=<landmarks>),
#   3. the same bench with --store= must print byte-identical stdout and
#      TSVs while performing ZERO landmark Dijkstras (stderr counter),
#   4. a cold run against an *empty* store must write artifacts back, and
#      a second run must then load them all (write-back tier contract),
#   5. `disco_store verify` must pass and `gc` must be clean.
#   usage: store_smoke.sh <path-to-disco_store> <path-to-fig04_gnm1024>
set -euo pipefail

STORE_BIN="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
BENCH_BIN="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
dir="$(mktemp -d)"
cleanup() { cd / && rm -rf "$dir"; }
trap cleanup EXIT
cd "$dir"

bench_flags=(--quick --schemes=disco --seed=5)

# 1. Reference run, no store anywhere.
"$BENCH_BIN" "${bench_flags[@]}" --out="$dir/cold" \
    > "$dir/cold.txt" 2> "$dir/cold.err"

# 2. Prebuild: same topology family/size policy/seed as the bench. The
#    first build computes every landmark tree; a second build over the same
#    store is an incremental no-op that loads them all.
"$STORE_BIN" build --store="$dir/store" --topo=gnm --quick --seed=5 \
    > "$dir/build.txt" 2>/dev/null
"$STORE_BIN" build --store="$dir/store" --topo=gnm --quick --seed=5 \
    > "$dir/rebuild.txt" 2>/dev/null
landmarks=$(sed -n 's/.* landmarks=\([0-9]*\) .*/\1/p' "$dir/build.txt")
if [ -z "$landmarks" ] ||
   ! grep -q "^built=$landmarks present=0 " "$dir/build.txt" ||
   ! grep -q "^built=0 present=$landmarks " "$dir/rebuild.txt"; then
  echo "store_smoke: build counts off (want built=$landmarks then present=$landmarks):" >&2
  cat "$dir/build.txt" "$dir/rebuild.txt" >&2
  exit 1
fi

# 3. Warm run: byte-identical output, zero Dijkstras.
"$BENCH_BIN" "${bench_flags[@]}" --store="$dir/store" --out="$dir/warm" \
    > "$dir/warm.txt" 2> "$dir/warm.err"
if ! cmp "$dir/cold.txt" "$dir/warm.txt"; then
  echo "store_smoke: warm-store stdout differs from the storeless run" >&2
  exit 1
fi
for f in "$dir"/cold/*.tsv; do
  if ! cmp "$f" "$dir/warm/$(basename "$f")"; then
    echo "store_smoke: warm-store TSV $(basename "$f") differs" >&2
    exit 1
  fi
done
if ! grep -q 'dijkstra=0 ' "$dir/warm.err"; then
  echo "store_smoke: warm run still ran landmark Dijkstras:" >&2
  cat "$dir/warm.err" >&2
  exit 1
fi
if grep -q ' disk=0 ' "$dir/warm.err"; then
  echo "store_smoke: warm run loaded nothing from the store:" >&2
  cat "$dir/warm.err" >&2
  exit 1
fi

# 4. Write-back: a cold run against an empty store populates it...
"$BENCH_BIN" "${bench_flags[@]}" --store="$dir/store2" --out="$dir/wb1" \
    > "$dir/wb1.txt" 2> "$dir/wb1.err"
cmp "$dir/cold.txt" "$dir/wb1.txt"
if grep -q 'writeback=0$' "$dir/wb1.err"; then
  echo "store_smoke: cold store run wrote nothing back:" >&2
  cat "$dir/wb1.err" >&2
  exit 1
fi
# ...and the next run resolves everything from it.
"$BENCH_BIN" "${bench_flags[@]}" --store="$dir/store2" --out="$dir/wb2" \
    > "$dir/wb2.txt" 2> "$dir/wb2.err"
cmp "$dir/cold.txt" "$dir/wb2.txt"
if ! grep -q 'dijkstra=0 ' "$dir/wb2.err"; then
  echo "store_smoke: run after write-back still ran Dijkstras:" >&2
  cat "$dir/wb2.err" >&2
  exit 1
fi

# 5. Store hygiene: verify passes, ls sees artifacts, gc removes nothing
#    it should not.
"$STORE_BIN" verify --store="$dir/store" > "$dir/verify.txt"
grep -q ' 0 corrupt' "$dir/verify.txt"
"$STORE_BIN" ls --store="$dir/store" > "$dir/ls.txt"
grep -q 'ltree' "$dir/ls.txt"
"$STORE_BIN" gc --store="$dir/store" > "$dir/gc.txt"
"$STORE_BIN" verify --store="$dir/store" > "$dir/verify2.txt"
grep -q ' 0 corrupt' "$dir/verify2.txt"

trees=$(grep -c 'ltree' "$dir/ls.txt" || true)
echo "store_smoke OK: $trees tree artifacts, warm run byte-identical with 0 Dijkstras"
