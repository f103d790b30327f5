#!/usr/bin/env bash
# The output manifest: the byte-identity contract of the deterministic
# benches and the examples. tests/outputs.sha256 holds one line per
# (binary, file) in sha256sum format, keyed "<binary>/<file>": the run's
# stdout, stderr and exit status, and every file it leaves in its working
# directory (the TSVs).
#
#   outputs.sh check <binary> [args...]   run once in a fresh temp dir and
#                                         compare with the binary's lines
#   outputs.sh regen <build-dir>          rerun every entry below and
#                                         rewrite the manifest
#
# `check` keys the run by the binary's name only, so the same lines must
# come out at any DISCO_THREADS and under --backend=procs. A change that
# moves an entry regenerates the manifest and lists every changed line,
# with its reason, in CHANGES.md.
set -euo pipefail

manifest="$(cd "$(dirname "$0")" && pwd)/outputs.sha256"

# Each entry: a binary in the build dir and the arguments regen runs it
# with. disco_serve, disco_graphbench and disco_store print wall-clock
# numbers, so they are exit-status smokes instead (CMakeLists.txt).
entries=(
  "ablation_constants --quick"
  "addr_size --quick"
  "disco_sweep --quick"
  "dynamics_churn --quick"
  "fig02_state_cdf --quick"
  "fig03_stretch_cdf --quick"
  "fig04_gnm1024 --quick"
  "fig05_geo1024 --quick"
  "fig06_shortcutting --quick"
  "fig07_state_bytes --quick"
  "fig08_convergence --quick"
  "fig09_scaling --quick"
  "fig10_as_congestion --quick"
  "nerror --quick"
  "overlay_dissemination --quick"
  "static_vs_des --quick"
  "example_content_lookup"
  "example_enterprise_ethernet"
  "example_mobility"
  "example_protocol_comparison"
  "example_quickstart"
)

# digest <binary> [args...]: runs the binary in an empty directory and
# prints the manifest lines of that run.
digest() {
  local bin name dir status=0
  bin="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
  name="$(basename "$1")"
  shift
  dir="$(mktemp -d)"
  mkdir "$dir/$name"
  (cd "$dir/$name" && "$bin" "$@" > "$dir/stdout" 2> "$dir/stderr") ||
    status=$?
  mv "$dir/stdout" "$dir/stderr" "$dir/$name/"
  echo "$status" > "$dir/$name/exit"
  (cd "$dir" && find "$name" -type f | LC_ALL=C sort | xargs sha256sum)
  rm -rf "$dir"
}

case "${1:-}" in
  check)
    shift
    [[ $# -ge 1 ]] || { echo "usage: $0 check <binary> [args...]" >&2; exit 2; }
    name="$(basename "$1")"
    want="$(grep -F "  $name/" "$manifest" || true)"
    if [[ -z "$want" ]]; then
      echo "outputs: no manifest lines for $name; run $0 regen <build-dir>" >&2
      exit 1
    fi
    got="$(digest "$@")"
    if [[ "$got" != "$want" ]]; then
      echo "outputs: $name differs from tests/outputs.sha256" \
           "(< manifest, > this run):" >&2
      diff <(echo "$want") <(echo "$got") >&2 || true
      exit 1
    fi
    echo "outputs OK: $name, $(echo "$got" | wc -l) files match"
    ;;
  regen)
    [[ $# -eq 2 ]] || { echo "usage: $0 regen <build-dir>" >&2; exit 2; }
    build="$(cd "$2" && pwd)"
    tmp="$(mktemp)"
    for entry in "${entries[@]}"; do
      read -r -a argv <<< "$entry"
      digest "$build/${argv[0]}" "${argv[@]:1}" >> "$tmp"
    done
    cat "$tmp" > "$manifest"
    rm -f "$tmp"
    echo "outputs: wrote $(wc -l < "$manifest") lines to $manifest"
    ;;
  *)
    echo "usage: $0 check <binary> [args...] | regen <build-dir>" >&2
    exit 2
    ;;
esac
