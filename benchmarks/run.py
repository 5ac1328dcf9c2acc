"""ringkit benchmark: dense, exhaustive and cli workloads.

    python3 benchmarks/run.py --workload dense --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py          # every workload, seed 1, traced

Run from anywhere inside a checkout of ringkit; ringkit is imported from
its src/ directory, nothing is installed.  Each workload runs in fresh
processes with PYTHONHASHSEED=0.  A run repeats whole rounds of a fixed,
seeded list of operations until --seconds have passed (and at least 100
operations ran), then prints every metric by name and unit; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced round follows the untraced ones and the metrics are the
per-layer ones (tracer.PER_LAYER).  Every time is calibrated against a
reference computation timed around it (calibration.py).  Raw per-run
data goes to bench_out/ at the root of the checkout.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checkers  # noqa: E402
import clibench  # noqa: E402
import tracer  # noqa: E402
from worker import MIN_OPS  # noqa: E402
from calibration import (REFERENCE_S, calibrate, op_references,  # noqa: E402
                         reference_time)

WORKLOADS = ("dense", "exhaustive", "cli")
SETUP_RUNS = 4          # set-ups per run; setup_s is their median
CHILD_TIMEOUT = 150     # seconds, for any one process this run starts

# the reference medians among the per-layer metrics: metric -> op class
CLASS_MEDIANS = {name: name[:-len(".p50_ms")]
                 for name, _ in tracer.PER_LAYER if name.endswith(".p50_ms")}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, extra_env=None):
    env = child_env()
    env.update(extra_env or {})
    try:
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(argv)[:200]}")


def worker(workload, seed, *extra):
    proc = run_child([sys.executable, str(BENCH / "worker.py"),
                      "--workload", workload, "--seed", str(seed), *extra])
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_call(argv, probe_env=None):
    """One CLI process, timed from spawn to exit; with probe_env, the
    traced probe (cli_probe.py) stands in for `python -m ringkit.cli`."""
    if probe_env is None:
        cmd = [sys.executable, "-m", "ringkit.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "cli_probe.py"), *argv]
    start = perf_counter()
    proc = run_child(cmd, probe_env)
    elapsed = perf_counter() - start
    return proc.returncode, proc.stdout.rstrip("\n"), proc.stderr, elapsed


def calibrated(latencies, references):
    """Per-operation calibrated latencies in ms, flattened over rounds."""
    return [calibrate(x, r) * 1000
            for lat, refs in zip(latencies, references)
            for x, r in zip(lat, op_references(refs))]


def end_to_end(latencies, references, setups, rss_mb):
    ms = calibrated(latencies, references)
    return {
        "ops_per_s": (len(ms) / sum(ms) * 1000, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def class_medians(names, latencies, references):
    per = {}
    for lat, refs in zip(latencies, references):
        for name, x, r in zip(names, lat, op_references(refs)):
            per.setdefault(name, []).append(calibrate(x, r) * 1000)
    return {m: statistics.median(per[c]) if c in per else 0
            for m, c in CLASS_MEDIANS.items()}


def per_layer(counters, scale, overhead, medians=None):
    """The per-layer metrics; scale calibrates the traced times."""
    out = {name: 0 for name, _ in tracer.PER_LAYER}
    for key, val in counters.items():
        if key in out:
            out[key] = val * scale if key.endswith("_ms") else val
    divs = counters.get("factor.fp_trial_divisions", 0)
    out["factor.fp_trial_division_hit_ratio"] = (
        counters.get("factor.fp_trial_division_hits", 0) / divs if divs else 0)
    out.update(medians or {})
    out["trace.overhead_ratio"] = overhead
    return {name: (out[name], unit) for name, unit in tracer.PER_LAYER}


def overhead_ratio(latencies, references, traced_lat, traced_refs):
    """Traced round time over the median untraced round time."""
    rounds = [sum(calibrated([lat], [refs]))
              for lat, refs in zip(latencies, references)]
    return sum(calibrated([traced_lat], [traced_refs])) / statistics.median(
        rounds)


# ---------------------------------------------------------------- workloads

def run_library(workload, args):
    """dense or exhaustive: set-ups in fresh processes, then one run."""
    runs = [worker(workload, args.seed, "--setup-only")
            for _ in range(SETUP_RUNS - 1)]
    res = worker(workload, args.seed, "--seconds", str(args.seconds),
                 "--trace", str(args.trace))
    runs.append(res)
    setups = [calibrate(r["setup_s"], r["setup_ref_s"]) for r in runs]
    failures = [f for r in runs for f in r["warmup_failures"]]
    failures += res["failures"]
    correct = not failures and not res.get("traced_failed")
    metrics = end_to_end(res["latencies"], res["references"], setups,
                         res["peak_rss_mb"])
    layer = None
    if args.trace:
        scale = REFERENCE_S / statistics.median(res["traced_references"])
        layer = per_layer(
            res["trace"], scale,
            overhead_ratio(res["latencies"], res["references"],
                           res["traced_latencies"], res["traced_references"]),
            class_medians(res["names"], res["latencies"], res["references"]))
    raw = dict(res, setups=setups)
    return (correct, res["attempted"], res["failed"], failures, metrics,
            layer, raw)


def cli_round(ops, probe=None):
    """Run one round of CLI processes, with a reference timing before
    the first and after each; check them after the round."""
    results, lat, refs = [], [], [reference_time()]
    for i, (_, argv, _, _) in enumerate(ops):
        code, out, err, elapsed = cli_call(
            argv, None if probe is None else probe(i))
        refs.append(reference_time())
        results.append((code, out, err))
        lat.append(elapsed)
    failed, unexpected = 0, []
    for (cls, argv, check, known_fault), res in zip(ops, results):
        try:
            check(*res)
        except checkers.CheckFailed as e:
            failed += 1
            if not known_fault:
                unexpected.append(f"{cls} {' '.join(argv)[:80]}: {e}")
    return lat, refs, failed, unexpected


def run_cli(args):
    # one untimed call writes the bytecode caches; then the timed set-ups
    warm = ("setup", ["phi", "16"], clibench.clean(clibench.expr_check(
        checkers.euler_phi(16))), False)
    for count in (1, SETUP_RUNS):
        lat, refs, _, unexpected = cli_round([warm] * count)
        if unexpected:
            raise BenchError(f"ringkit.cli does not run: {unexpected[0]}")
    setups = [calibrate(x, r) for x, r in zip(lat, op_references(refs))]
    ops = clibench.operations(args.seed)
    latencies, references, failures = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while perf_counter() - start < args.seconds or attempted < MIN_OPS:
        lat, refs, bad, unexpected = cli_round(ops)
        latencies.append(lat)
        references.append(refs)
        attempted += len(ops)
        failed += bad
        failures += unexpected
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = end_to_end(latencies, references, setups, rss)
    layer, raw = None, {"argvs": [op[1] for op in ops],
                        "latencies": latencies, "references": references,
                        "setups": setups}
    if args.trace:
        layer, raw["trace"] = traced_cli_round(ops, latencies, references,
                                               failures)
    return not failures, attempted, failed, failures, metrics, layer, raw


def traced_cli_round(ops, latencies, references, failures):
    out_dir = ROOT / "bench_out" / "cli_trace"
    out_dir.mkdir(parents=True, exist_ok=True)

    def probe(i):
        return {"BENCH_TRACE_OUT": str(out_dir / f"{i}.json"),
                "BENCH_SPAWN_NS": str(time.time_ns())}

    lat, refs, _, unexpected = cli_round(ops, probe)
    failures += unexpected
    counters, times = {}, {"interpreter_start_ms": [], "import_ms": [],
                           "main_ms": []}
    for i in range(len(ops)):
        rec = json.loads((out_dir / f"{i}.json").read_text())
        for key in times:
            times[key].append(rec[key])
        for key, val in rec["trace"].items():
            counters[key] = counters.get(key, 0) + val
    counters.update((f"cli.{k}", statistics.median(v))
                    for k, v in times.items())
    scale = REFERENCE_S / statistics.median(refs)
    overhead = overhead_ratio(latencies, references, lat, refs)
    return per_layer(counters, scale, overhead), counters


# ---------------------------------------------------------------------- main

def run_one(workload, args):
    if workload == "cli":
        result = run_cli(args)
    else:
        result = run_library(workload, args)
    correct, attempted, failed, failures, metrics, layer, raw = result
    out_dir = ROOT / "bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(dict(
        raw, workload=workload, seed=args.seed, correct=correct,
        attempted=attempted, failed=failed, failures=failures)))
    print(f"workload {workload}: seed {args.seed}, attempted {attempted}, "
          f"failed {failed}, correct {correct}")
    for line in failures:
        print(f"  unexpected failure: {line}")
    shown = dict(metrics, **(layer or {}))
    for key, (value, unit) in shown.items():
        print(f"  {key} = {value:.6g} {unit}")
    refs = [r for rnd in raw["references"] for r in rnd]
    print(f"  (host speed: reference median "
          f"{statistics.median(refs) * 1000:.3f} ms; times above are "
          f"calibrated to {REFERENCE_S * 1000:g} ms)")
    final = layer if args.trace else metrics
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in final.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ringkit" / "__init__.py").is_file():
        print(f"no ringkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace is None:
        args.trace = int(args.workload == "all")
    try:
        results = {w: run_one(w, args) for w in workloads}
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
