"""Oracle bases for the dense kernels over Z and Z/n.

LoopMod and LoopZ are ModRing and IntegerRing with the dense hook off,
so polynomial and series rings over them run the coefficient loops at
every size; the dense tests compare against them.
"""

from ringkit import ModRing, ZZ
from ringkit.number_rings import IntegerRing


class LoopMod(ModRing):
    """Z/n with the dense hook off: the coefficient loops at every size."""

    def dense_modulus(self):
        return None


class LoopZ(IntegerRing):
    def dense_modulus(self):
        return None


def dense_and_loop_bases(n):
    """(dense base, oracle base) for Z (n == 0) or Z/n."""
    if n == 0:
        return ZZ, LoopZ()
    return ModRing(n), LoopMod(n)
