"""Oracle bases for the kernels over Z, Q, Z/n and F_p[y]/(m).

LoopMod, LoopZ and LoopQ are ModRing, IntegerRing and RationalField, and
LoopQuot is QuotientRing, with the kernel() hook off, so polynomial and
series rings over them run poly.LoopKernel, the coefficient loops, at
every size, and gcd and xgcd over Q[x] the loop of euclid.xgcd_payload;
LoopZ has no euclid_kernel() either, so Euclid over it runs that loop
through the context.  The kernel tests compare against them.
"""

from ringkit import ModRing, ZZ
from ringkit.number_rings import IntegerRing, RationalField
from ringkit.poly import PolyRing
from ringkit.quotient import QuotientRing


class LoopMod(ModRing):
    """Z/n with no kernel: the coefficient loops at every size."""

    def kernel(self):
        return None


class LoopZ(IntegerRing):
    def kernel(self):
        return None

    def euclid_kernel(self):
        return None


class LoopQ(RationalField):
    def kernel(self):
        return None


def dense_and_loop_bases(n):
    """(kernel base, oracle base) for Z (n == 0) or Z/n."""
    if n == 0:
        return ZZ, LoopZ()
    return ModRing(n), LoopMod(n)


class LoopQuot(QuotientRing):
    """A quotient with no kernel: one base call per coefficient operation
    in the rings over it."""

    def kernel(self):
        return None


def tower_and_loop_bases(p, m):
    """(tower base, oracle base) for F_p[y]/(m)."""
    Fy = PolyRing(ModRing(p))
    return QuotientRing(Fy, m), LoopQuot(Fy, m)
