"""Statement lines of src/ringkit that no tier-1 test reaches.

Runs the test suite in this process under a sys.settrace line tracer
(standard library only; no coverage package) and prints, file by file,
every line that carries bytecode in src/ringkit and never ran, then a
count.  A test that fails to trace (hypothesis, on a failing example,
sets and clears its own tracer) would blind the tracer for the rest of
the run, so a pytest hook installs it again as each test is called.

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

Extra arguments go to pytest, e.g. one test file.  Lines run only in a
subprocess (a CLI test that starts python) count as unreached, and a
line that is unreached is not yet dead: read it before deleting it.
"""

import sys
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ringkit"


def statement_lines(path):
    """The line numbers that carry bytecode, in every code object."""
    todo = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts
                    if isinstance(c, types.CodeType))
    return lines


class LineTracer:
    def __init__(self, files):
        self.files = set(files)
        self.seen = {f: set() for f in self.files}

    def trace(self, frame, event, arg):
        if frame.f_code.co_filename in self.files:
            return self.line
        return None

    def line(self, frame, event, arg):
        if event == "line":
            self.seen[frame.f_code.co_filename].add(frame.f_lineno)
        return self.line

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        sys.settrace(self.trace)
        yield


def main(args):
    sys.path.insert(0, str(ROOT / "src"))
    # tracing slows every example; no deadline, no too-slow health check
    settings.register_profile(
        "linetrace", deadline=None,
        suppress_health_check=[HealthCheck.too_slow])
    settings.load_profile("linetrace")
    paths = sorted(SRC.glob("*.py"))
    tracer = LineTracer(str(p) for p in paths)
    sys.settrace(tracer.trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            *(args or [str(ROOT / "tests")])],
                           plugins=[tracer])
    finally:
        sys.settrace(None)
    total = missed = 0
    for path in paths:
        lines = statement_lines(path)
        text = path.read_text().splitlines()
        rel = path.relative_to(ROOT)
        for n in sorted(lines - tracer.seen[str(path)]):
            print(f"{rel}:{n}: {text[n - 1].strip()}")
            missed += 1
        total += len(lines)
    print(f"{missed} of {total} statement lines in {SRC.relative_to(ROOT)} "
          f"unreached (pytest exit {int(code)})")


if __name__ == "__main__":
    main(sys.argv[1:])
