"""One workload in one fresh process: set up, measure, check, report.

Started by run.py with PYTHONHASHSEED fixed and ringkit's src/ on
PYTHONPATH.  Prints one JSON line with the raw set-up time, the raw
latency of every timed operation, the reference timings around each
(calibration.py), the checks' outcome and, with --trace 1, the
per-layer counters of one extra traced round.

    python benchmarks/worker.py --workload dense --seed 1 --seconds 25

--setup-only stops after the set-up and reports its time alone; run.py
uses it to take the median of several set-ups.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
from time import perf_counter

import checkers
import workloads
from calibration import reference_time

MIN_OPS = 100   # so that ten samples lie beyond the 90th percentile


def run_round(ops):
    """Time every call of one round, with a reference timing before the
    first call and after each one.

    Returns (latencies, references, results), len(references) ==
    len(latencies) + 1; calibration.op_references pairs them up."""
    lat, refs, results = [], [reference_time()], []
    for _, call, _, _ in ops:
        t = perf_counter()
        r = call()
        lat.append(perf_counter() - t)
        refs.append(reference_time())
        results.append(r)
    return lat, refs, results


def check_round(ops, results, failures):
    """Check every result outside the timed region; returns failures."""
    bad = 0
    for (name, _, extract, check), r in zip(ops, results):
        try:
            check(extract(r))
        except checkers.CheckFailed as e:
            bad += 1
            if len(failures) < 20:
                failures.append(f"{name}: {e}")
    return bad


def set_up(workload, seed):
    """Build the workload and warm every operation class once.

    The clock starts just before ringkit is imported and stops after
    the warm-up pass, so it measures ringkit's own set-up work:
    imports, contexts, caches such as the irreducible sieve."""
    raw = workloads.generate(workload, seed)
    gc.collect()
    refs = [reference_time() for _ in range(5)]
    t0 = perf_counter()
    import ringkit  # noqa: F401
    ops = workloads.build(raw)
    seen, warm = set(), []
    for op in ops:
        if op[0] not in seen:
            seen.add(op[0])
            warm.append((op, op[1]()))
    setup_s = perf_counter() - t0
    refs += [reference_time() for _ in range(5)]
    failures = []
    for op, r in warm:
        check_round([op], [r], failures)
    return ops, setup_s, statistics.median(refs), failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops, setup_s, setup_ref, failures = set_up(args.workload, args.seed)
    out = {"setup_s": setup_s, "setup_ref_s": setup_ref,
           "warmup_failures": failures}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    gc.collect()
    gc.freeze()
    latencies, references = [], []
    attempted = failed = 0
    failures = []
    start = perf_counter()
    while perf_counter() - start < args.seconds or attempted < MIN_OPS:
        lat, refs, results = run_round(ops)
        latencies.append(lat)
        references.append(refs)
        attempted += len(ops)
        failed += check_round(ops, results, failures)
        del results
    out.update(names=[op[0] for op in ops], latencies=latencies,
               references=references, attempted=attempted, failed=failed,
               failures=failures)

    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            lat, refs, results = run_round(ops)
        finally:
            tracer.uninstall()
        bad = check_round(ops, results, failures)
        out.update(trace=tracer.report(), traced_latencies=lat,
                   traced_references=refs, traced_failed=bad)

    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
