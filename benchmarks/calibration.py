"""Host-speed calibration of every reported time.

On a shared host the speed of the same Python code moves by up to 2x
over tens of seconds (measured: one degree-1000 product over F_101 took
anywhere from 155 to 360 ms within a minute), so raw times say more
about the neighbours than about ringkit.  The benchmark therefore times
a fixed reference computation right before and right after every
measurement and reports

    calibrated = raw * REFERENCE_S / reference

where reference is the median of the six reference timings nearest to
the measurement (the two around it and two more on each side): the
time the measurement would have taken on a host that runs the
reference in exactly REFERENCE_S.  The reference is a schoolbook
product of two fixed degree-89 polynomials over F_101 in plain Python
(no ringkit), the same kind of work as ringkit's kernels, so it slows
and speeds up with them.  Raw times and reference timings are kept in
bench_out/.
"""

import statistics
from time import perf_counter

REFERENCE_S = 0.001

_A = [(37 * i * i + 11 * i + 5) % 101 for i in range(90)]
_B = [(53 * i * i + 7 * i + 3) % 101 for i in range(90)]


def reference():
    out = [0] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] = (out[i + j] + x * y) % 101
    return out


def reference_time():
    start = perf_counter()
    reference()
    return perf_counter() - start


def calibrate(seconds, reference_seconds):
    return seconds * REFERENCE_S / reference_seconds


def op_references(refs):
    """One reference per operation from the timings taken before the
    first operation and after each (len(refs) operations + 1)."""
    return [statistics.median(refs[max(i - 2, 0):i + 4])
            for i in range(len(refs) - 1)]
