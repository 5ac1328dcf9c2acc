"""Each checker accepts ringkit's result and rejects it with one value changed.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_checkers.py
    PYTHONPATH=src python3 benchmarks/test_checkers.py

For every operation class of the dense and exhaustive workloads, one
operation is built from a fixed seed, its result is checked, then the
first number in the extracted result is increased by one (an
inconclusive verdict, which has none, is turned into a claim of
irreducibility) and the check must fail.  The CLI checks get the same
treatment on the printed line: the first digit is changed (or a
coefficient 2 is put in front of a result with no digit), and the
check must fail.
"""

import contextlib
import io
import random
import re
from fractions import Fraction

import checkers as C
import clibench
import workloads as W


def corrupt(data):
    """Copy of data with its first number (not a bool) increased by one."""
    done = [False]

    def walk(x):
        if done[0] or isinstance(x, bool):
            return x
        if isinstance(x, (int, Fraction)):
            done[0] = True
            return x + 1
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return type(x)(walk(v) for v in x)
        return x

    out = walk(data)
    if not done[0]:
        # an inconclusive verdict carries no number: claim irreducibility
        assert data[0] == "inconclusive", f"nothing to corrupt in {data!r}"
        out = ["irreducible"] + list(data[1:])
    return out


def corrupt_line(text):
    m = re.search(r"\d", text)
    if m is None:
        return "2*" + text
    d = str((int(m.group()) + 1) % 10)
    return text[:m.start()] + d + text[m.end():]


def rejects(check, data):
    try:
        check(data)
    except C.CheckFailed:
        return True
    return False


def library_cases():
    rk = W.Ringkit()
    for workload, classes in W.WORKLOADS.items():
        rng = random.Random(f"selftest:{workload}")
        for name, _, gen, make in classes():
            yield name, make(rk, gen(rng))


def test_library_checkers_reject_a_changed_value():
    for name, (call, extract, check) in library_cases():
        data = extract(call())
        check(data)
        assert rejects(check, corrupt(data)), name


def test_cli_checkers_reject_a_changed_value():
    from ringkit.cli import main

    for cls, argv, check, known_fault in clibench.operations(0):
        if known_fault:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0, argv
        line = out.getvalue().rstrip("\n")
        check(0, line, "")
        bad = corrupt_line(line)
        assert rejects(lambda o: check(0, o, ""), bad), (argv, bad)


def test_fault_checks_accept_the_mended_behaviour():
    checks = {cls: check for cls, _, check in clibench.KNOWN_FAULTS}
    quad, prod = checks["fault.quad_bracket"], checks["fault.prod_eval"]
    quad(2, "", "parse error: no bracket literals in Quad:-1\n")
    assert rejects(lambda e: quad(1, "", e),
                   "Traceback (most recent call last):\nRecursionError: x\n")
    prod(0, "(1,2)", "")
    assert rejects(lambda o: prod(0, o, ""), "(1,3)")
    assert rejects(lambda e: prod(2, "", e), "parse error: unexpected ','")


if __name__ == "__main__":
    for test in (test_library_checkers_reject_a_changed_value,
                 test_cli_checkers_reject_a_changed_value,
                 test_fault_checks_accept_the_mended_behaviour):
        test()
        print(f"ok {test.__name__}")
