#!/usr/bin/env bash
# CI smoke for the process-pool executor:
#   1. the same mini-grid driven through --backend=procs --workers=2 must
#      produce a sweep.tsv byte-identical to the in-process
#      --backend=threads run;
#   2. a replicated fig08 DES campaign (8 replicas, churn scenario) must
#      be byte-identical across the two backends — stdout and TSVs.
# Every byte the binaries write lands inside one mktemp directory (the
# script cd's into it, so even cwd-relative TSV fallbacks are contained)
# and the EXIT trap removes it on success *and* on every failure path —
# a second ctest run can never compare against stale files.
#   usage: exec_smoke.sh <path-to-disco_sweep> <path-to-fig08_convergence>
set -euo pipefail

SWEEP="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
FIG08="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
dir="$(mktemp -d)"
cleanup() { cd / && rm -rf "$dir"; }
trap cleanup EXIT
cd "$dir"

"$SWEEP" --quick --backend=threads --out="$dir/threads" > /dev/null
"$SWEEP" --quick --backend=procs --workers=2 --out="$dir/procs" > /dev/null

if ! cmp "$dir/threads/sweep.tsv" "$dir/procs/sweep.tsv"; then
  echo "exec_smoke: procs backend output differs from threads backend" >&2
  exit 1
fi
rows=$(grep -cv -e '^#' -e '^cell	' "$dir/threads/sweep.tsv")

campaign_flags=(--quick --replicas=8 --scenario=churn)
"$FIG08" "${campaign_flags[@]}" --backend=threads \
  --out="$dir/f8_threads" > "$dir/f8_threads.out"
"$FIG08" "${campaign_flags[@]}" --backend=procs --workers=2 \
  --out="$dir/f8_procs" > "$dir/f8_procs.out"

for artifact in \
    "f8_threads.out f8_procs.out" \
    "f8_threads/fig08_convergence.tsv f8_procs/fig08_convergence.tsv" \
    "f8_threads/fig08_campaign.tsv f8_procs/fig08_campaign.tsv"; do
  set -- $artifact
  if ! cmp "$dir/$1" "$dir/$2"; then
    echo "exec_smoke: campaign artifact $2 differs between backends" >&2
    exit 1
  fi
done
replica_rows=$(grep -cv '^label	' "$dir/f8_threads/fig08_campaign.tsv")

echo "exec_smoke OK: $rows sweep cells and $replica_rows campaign rows," \
     "procs == threads byte-identical"
