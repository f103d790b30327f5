#!/usr/bin/env bash
# CI smoke for the sweep driver's output and flags: a --quick run leaves
# exactly one file, sweep.tsv, headed by its "#spec" provenance line; the
# retired manual split flags, the retired net backend's flags, malformed
# grid values and unknown scenario kinds are usage errors.
# Byte identity across the threads and procs backends is exec_smoke's job.
#   usage: sweep_smoke.sh <path-to-disco_sweep>
set -euo pipefail

BIN="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
dir="$(mktemp -d)"
cleanup() { cd / && rm -rf "$dir"; }
trap cleanup EXIT
cd "$dir"

"$BIN" --quick --out="$dir/run" > /dev/null
files=$(ls -A "$dir/run")
if [[ "$files" != "sweep.tsv" ]]; then
  echo "sweep_smoke: expected only sweep.tsv in --out, got:" $files >&2
  exit 1
fi
if [[ "$(head -c 6 "$dir/run/sweep.tsv")" != "#spec " ]]; then
  echo "sweep_smoke: sweep.tsv does not start with a #spec line" >&2
  exit 1
fi

# rejects <flag> [text]: the run must exit 2 (and, when given, print
# `text` on stderr) instead of sweeping anything.
rejects() {
  local status=0
  "$BIN" --quick "$1" --out="$dir/bad" > /dev/null 2> "$dir/bad.err" ||
    status=$?
  if [[ $status -ne 2 ]]; then
    echo "sweep_smoke: $1 exited $status, want 2" >&2
    exit 1
  fi
  if [[ -n "${2:-}" ]] && ! grep -qF -- "$2" "$dir/bad.err"; then
    echo "sweep_smoke: $1 died without \"$2\" on stderr" >&2
    exit 1
  fi
}
rejects --shard=0/2 usage:  # the retired manual split: use --backend=
rejects --merge usage:
rejects --backend=net '"threads" or "procs"'  # net backend retired
rejects --hosts=a:1 usage:
rejects --seeds=-1          # not seed 2^64-1
rejects --sizes=+5
rejects --scenarios=bogus partition  # the error lists the known kinds

rows=$(grep -cv -e '^#' -e '^cell	' "$dir/run/sweep.tsv")
echo "sweep_smoke OK: $rows cells in one sweep.tsv, bad flags rejected"
