"""`python -m ringkit.cli` with the tracer installed, for the traced round.

    BENCH_TRACE_OUT=out.json BENCH_SPAWN_NS=<time_ns> \
        python benchmarks/cli_probe.py <ringkit argv...>

Runs ringkit.cli.main on the argv exactly as the CLI would, then writes
to BENCH_TRACE_OUT the interpreter start-up time (from BENCH_SPAWN_NS,
the parent's clock just before it spawned this process), the time to
import ringkit.cli, the time spent in main, and the tracer's counters.
"""

import time

START_NS = time.time_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402


def main():
    t0 = perf_counter()
    import ringkit.cli as cli
    t1 = perf_counter()
    import tracer

    trace = tracer.Tracer()
    trace.install()
    t2 = perf_counter()
    try:
        return cli.main(sys.argv[1:])
    finally:
        t3 = perf_counter()
        trace.uninstall()
        sys.stdout.flush()
        record = {
            "interpreter_start_ms":
                (START_NS - int(os.environ["BENCH_SPAWN_NS"])) / 1e6,
            "import_ms": (t1 - t0) * 1000,
            "main_ms": (t3 - t2) * 1000,
            "trace": trace.report(),
        }
        with open(os.environ["BENCH_TRACE_OUT"], "w") as f:
            json.dump(record, f)


if __name__ == "__main__":
    sys.exit(main())
