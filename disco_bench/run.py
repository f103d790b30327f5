#!/usr/bin/env python3
"""Runs the disco_bench benchmark: builds it, repeats it, checks it.

Run from the repository root:

  python3 disco_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One workload. Repeats fresh disco_bench processes until --seconds have
      passed (at least three untraced repetitions; with --trace 1, at least
      two traced and two untraced, alternating). The last line of stdout is
      {"correct", "attempted", "failed", "metrics"}: the end_to_end metrics
      of BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
  python3 disco_bench/run.py --all --seed <n> [--seconds <s>] [--json <file>]
      Every workload, untraced then traced; prints each metric with its unit
      and writes the results file --compare reads.
  python3 disco_bench/run.py --quick
      Every workload at toy size with every check, one untraced and one
      traced repetition each, then a comparator self-check.
  python3 disco_bench/run.py --compare <a.json> <b.json> [--bounds BENCHMARK.json]
      One row per (workload, end-to-end metric): both values, quartiles of
      the repetitions and the delta. A metric whose repetition spread is
      wider than its bound is unresolved; deterministic outputs must match
      exactly. Exits 1 on any regression past a bound.

The build goes to .bench_build/disco_bench, scratch files (stores, traces)
to .bench_build/runs; the last traced repetition of each workload is kept
as .bench_build/last-trace-<workload>.json. Exit status is 0 only when every
check passed.
"""

import argparse
import array
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
BUILD = ROOT / ".bench_build" / "disco_bench"
BINARY = BUILD / "disco_bench"
WORKLOADS = ["serve-hot", "serve-cold", "eval-cold", "eval-warm-procs"]
MIN_REPS = 3            # untraced repetitions per run
MIN_TRACED_REPS = 2     # traced and untraced repetitions per traced run
REP_TIMEOUT_S = 150
BUILD_JOBS = 4
# The speed reference's before + after time on an unloaded core of the
# machine the bounds were set on (4-vCPU Intel Xeon VM). A run's times are
# scaled by REFERENCE_NS over the median reference time of its
# repetitions: times then read as seconds at that speed, and a host that
# runs slower for a while does not read as a slower program.
REFERENCE_NS = 36e6
TIME_UNITS = ("s", "ms", "us", "ns")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build():
    """Configures and builds the package; a no-op when up to date."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no program sources: {ROOT / 'src'} is missing")
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(PKG), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", str(BUILD_JOBS)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_rep(workload, seed, workdir, quick=False, store=None, trace=None):
    """One repetition in a fresh process: its JSON plus wait4's peak RSS."""
    samples = workdir / "rep.lat"
    argv = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
            f"--samples={samples}"]
    if quick:
        argv.append("--quick")
    if store is not None:
        argv.append(f"--store={store}")
    if trace is not None:
        argv.append(f"--trace={trace}")
    out_path, err_path = workdir / "rep.out", workdir / "rep.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        # A session of its own, so a timeout can kill the procs workers too.
        pid = os.posix_spawn(argv[0], argv, os.environ, setsid=True,
                             file_actions=[
                                 (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                 (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
    deadline = time.monotonic() + REP_TIMEOUT_S
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.killpg(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise BenchError(f"{workload}: repetition timed out")
        time.sleep(0.02)
    if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"{workload}: repetition failed "
                         f"(status {status}):\n{tail}")
    try:
        rep = json.loads(out_path.read_text())
    except ValueError as e:
        raise BenchError(f"{workload}: unreadable repetition output: {e}")
    rep["lat_ns"] = array.array("Q", samples.read_bytes())
    rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    rep["traced"] = trace is not None
    return rep


def quantile(sorted_values, q):
    """The ceil(q * n)-th smallest value."""
    i = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[i - 1]


def run_workload(workload, seed, seconds, traced, quick=False):
    """Repeats one workload; returns its repetitions and the eval-cold
    digest an eval-warm-procs run must reproduce."""
    workdir = ROOT / ".bench_build" / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        reference = None
        warm_store = None
        if workload == "eval-warm-procs":
            # Untimed preparation: an eval-cold job fills the store.
            warm_store = workdir / "warm-store"
            warm_store.mkdir()
            reference = run_rep("eval-cold", seed, workdir, quick,
                                store=warm_store)["digest"]
        reps = []
        start = time.monotonic()
        while True:
            n_traced = sum(r["traced"] for r in reps)
            n_plain = len(reps) - n_traced
            if traced:
                enough = min(n_traced, n_plain) >= (1 if quick else
                                                    MIN_TRACED_REPS)
            else:
                enough = n_plain >= (1 if quick else MIN_REPS)
            if enough and time.monotonic() - start >= seconds:
                break
            trace = None
            if traced and n_plain > n_traced:
                trace = workdir / f"trace-{len(reps)}.json"
            store = warm_store
            if workload == "eval-cold":
                store = workdir / f"store-{len(reps)}"
                store.mkdir()
            reps.append(run_rep(workload, seed, workdir, quick, store, trace))
            if store is not None and store != warm_store:
                shutil.rmtree(store)
            if trace is not None:
                shutil.copyfile(trace, ROOT / ".bench_build" /
                                f"last-trace-{workload}.json")
                for f in workdir.glob("trace-*"):
                    f.unlink()
        return reps, reference
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(workload, reps, reference):
    """Every metric of a run, its per-repetition values, and the list of
    failed checks."""
    errors = []
    for i, r in enumerate(reps):
        errors += [f"{workload} repetition {i}: {e}" for e in r["errors"]]
    # Deterministic outputs must not depend on the repetition or on tracing.
    for key in ("digest", "routes", "audited", "stretch_mean", "hops_mean"):
        values = {json.dumps(r[key]) for r in reps}
        if len(values) != 1:
            errors.append(f"{workload}: {key} differs between repetitions: "
                          f"{sorted(values)}")
    if reference is not None and reps[0]["digest"] != reference:
        errors.append(f"{workload}: result digest {reps[0]['digest'][:16]} "
                      f"differs from eval-cold's {reference[:16]}")

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    lat = sorted(ns for r in plain for ns in r["lat_ns"])
    med = statistics.median
    rep_values = {
        "setup_s": [r["setup_s"] for r in plain],
        "job_s": [r["job_s"] for r in plain],
        "qps": [r["routes"] / r["route_phase_s"] for r in plain],
        "lat_p50_us": [quantile(sorted(r["lat_ns"]), 0.50) / 1e3
                       for r in plain],
        "lat_p99_us": [quantile(sorted(r["lat_ns"]), 0.99) / 1e3
                       for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    values = {name: med(v) for name, v in rep_values.items()}
    # Latency percentiles pool every untraced repetition's samples.
    values["lat_p50_us"] = quantile(lat, 0.50) / 1e3
    values["lat_p99_us"] = quantile(lat, 0.99) / 1e3

    values.update({
        "obs.speed_scale": REFERENCE_NS / med(r["reference_ns"] for r in reps),
        "digest": reps[0]["digest"],
        "core.stretch_mean": plain[0]["stretch_mean"],
        "core.hops_mean": plain[0]["hops_mean"],
        "store.tree_dijkstras": med(r["tree_dijkstras"] for r in plain),
        "store.tree_store_hits": med(r["tree_store_hits"] for r in plain),
        "store.tree_writebacks": med(r["tree_writebacks"] for r in plain),
        "store.bytes_mb": med(r["store_bytes_mb"] for r in plain),
        "route.samples": len(lat),
        "route.lat_p999_us": quantile(lat, 0.999) / 1e3,
        "exec.dispatched": med(r["exec_dispatched"] for r in plain),
        "exec.retries": med(r["exec_retries"] for r in plain),
        "proc.invol_ctx_switches": med(r["invol_ctx_switches"]
                                       for r in plain),
        "proc.minor_faults": med(r["minor_faults"] for r in plain),
    })
    if traced:
        for name in traced[0]["layers"]:
            values[name] = med(r["layers"][name] for r in traced)
        values["obs.trace_overhead_frac"] = (
            med(r["job_s"] for r in traced) / values["job_s"] - 1)
    attempted = sum(r["routes"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return values, rep_values, errors, attempted, failed


def load_manifest():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def pick(section, values, errors, scale):
    """The section's metrics as {name: {"value", "unit"}}, times scaled to
    the reference speed; a metric with no value is a failed check."""
    metrics = {}
    for m in section:
        if m["name"] not in values:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]] * unit_scale(
            m["unit"], scale), "unit": m["unit"]}
    return metrics


def unit_scale(unit, scale):
    return scale if unit in TIME_UNITS else 1 / scale if unit == "1/s" else 1


def measure(workload, seed, seconds, trace, quick=False):
    reps, reference = run_workload(workload, seed, seconds, trace, quick)
    return summarize(workload, reps, reference)


def cmd_workload(args):
    manifest = load_manifest()
    values, _, errors, attempted, failed = measure(
        args.workload, args.seed, args.seconds, args.trace == 1)
    scale = values["obs.speed_scale"]
    log(f"[disco_bench] {args.workload}: times scaled by {scale:.4f} to the "
        f"reference speed")
    metrics = pick(manifest["per_layer" if args.trace else "end_to_end"],
                   values, errors, scale)
    for e in errors:
        log(f"CHECK FAILED: {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


# Outputs that repeat exactly for a given seed, whatever the code's speed.
DETERMINISTIC = ("digest", "core.stretch_mean", "core.hops_mean")


def run_all(seed, seconds, quick):
    """Every workload, untraced then traced: the results --compare reads."""
    manifest = load_manifest()
    results = {"seed": seed, "quick": quick, "workloads": {}}
    all_errors = []
    for workload in WORKLOADS:
        log(f"[disco_bench] {workload}: untraced")
        values, rep_values, errors, _, _ = measure(workload, seed, seconds,
                                                   False, quick)
        log(f"[disco_bench] {workload}: traced")
        layer_values, _, layer_errors, _, _ = measure(workload, seed, seconds,
                                                      True, quick)
        errors += layer_errors
        errors += [f"{workload}: {k} differs traced vs untraced"
                   for k in DETERMINISTIC if values[k] != layer_values[k]]
        scale = values["obs.speed_scale"]
        e2e = pick(manifest["end_to_end"], values, errors, scale)
        for name, m in e2e.items():
            m["reps"] = [v * unit_scale(m["unit"], scale)
                         for v in rep_values[name]]
        layers = pick(manifest["per_layer"], layer_values, errors,
                      layer_values["obs.speed_scale"])
        results["workloads"][workload] = {
            "correct": not errors, "errors": errors, "end_to_end": e2e,
            "per_layer": layers,
            "deterministic": {k: values[k] for k in DETERMINISTIC}}
        print(f"\n{workload}" + ("  CHECKS FAILED" if errors else ""))
        for name, m in list(e2e.items()) + list(layers.items()):
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        all_errors += errors
    return results, all_errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the first and third quartile, over the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def compare(base, new, manifest, out=sys.stdout):
    """Prints one row per (workload, end-to-end metric); returns the
    regressions past a bound."""
    regressions = []
    print(f"{'workload':16s} {'metric':12s} {'base':>11s} {'new':>11s} "
          f"{'base q1..q3':>23s} {'new q1..q3':>23s} {'delta':>8s}  verdict",
          file=out)
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            regressions.append(f"{workload}: missing from the new results")
            continue
        for m in manifest["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            bm, nm = b["end_to_end"][name], n["end_to_end"][name]
            delta = nm["value"] / bm["value"] - 1
            worse = delta if lower else -delta
            all_better = all(x < min(bm["reps"]) if lower
                             else x > max(bm["reps"]) for x in nm["reps"])
            if (max(spread(bm["reps"]), spread(nm["reps"])) > bound
                    and not all_better):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions.append(f"{workload} {name}: {worse:+.1%} worse "
                                   f"(bound {bound:.0%})")
            else:
                verdict = "ok"
            bq, nq = quartiles(bm["reps"]), quartiles(nm["reps"])
            print(f"{workload:16s} {name:12s} {bm['value']:11.5g} "
                  f"{nm['value']:11.5g} {bq[0]:11.5g}..{bq[1]:<10.5g} "
                  f"{nq[0]:11.5g}..{nq[1]:<10.5g} {delta:+8.1%}  {verdict}",
                  file=out)
        if base["seed"] == new["seed"]:
            for key, value in b["deterministic"].items():
                if n["deterministic"].get(key) != value:
                    regressions.append(
                        f"{workload} {key}: {value} -> "
                        f"{n['deterministic'].get(key)} (deterministic at "
                        f"one seed; must match)")
    return regressions


def cmd_compare(args):
    with open(args.compare[0]) as f:
        base = json.load(f)
    with open(args.compare[1]) as f:
        new = json.load(f)
    with open(args.bounds) as f:
        manifest = json.load(f)
    regressions = compare(base, new, manifest)
    for r in regressions:
        print(f"REGRESSION: {r}")
    return 1 if regressions else 0


def cmd_all(args):
    results, errors = run_all(args.seed, args.seconds, quick=False)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
        log(f"[disco_bench] wrote {args.json}")
    for e in errors:
        log(f"CHECK FAILED: {e}")
    return 1 if errors else 0


def cmd_quick(args):
    start = time.monotonic()
    results, errors = run_all(args.seed, 0, quick=True)
    for e in errors:
        log(f"CHECK FAILED: {e}")
    # Comparator self-check: the results against themselves pass; a copy
    # with one end-to-end metric made 2x worse fails.
    manifest = load_manifest()
    sink = io.StringIO()
    if compare(results, results, manifest, out=sink):
        errors.append("comparator self-check: identical results regressed")
    worse = json.loads(json.dumps(results))
    metric = manifest["end_to_end"][1]
    factor = 2.0 if metric["better"] == "lower" else 0.5
    m = worse["workloads"][WORKLOADS[0]]["end_to_end"][metric["name"]]
    m["value"] *= factor
    m["reps"] = [v * factor for v in m["reps"]]
    if not compare(results, worse, manifest, out=sink):
        errors.append(f"comparator self-check: a 2x worse {metric['name']} "
                      f"passed")
    log(f"[disco_bench] quick run took {time.monotonic() - start:.1f} s")
    print("quick: " + ("FAILED" if errors else "OK"))
    return 1 if errors else 0


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--quick", action="store_true")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="results file for --all")
    p.add_argument("--bounds", default=str(ROOT / "BENCHMARK.json"))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must not be negative")
    try:
        if args.compare:
            return cmd_compare(args)
        build()
        if args.workload:
            return cmd_workload(args)
        if args.all:
            return cmd_all(args)
        return cmd_quick(args)
    except BenchError as e:
        log(f"disco_bench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
