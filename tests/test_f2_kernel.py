"""F_2[x] on packed ints (poly.F2Kernel) against the int-list kernel.

IntKernel(2) runs the same list interface on lists of 0/1 by the
schoolbook loop, Newton division and half-gcd; it is the oracle here, so
quotients, remainders, gcds, cofactors and powers must be equal lists,
and factorizations over F_2 must agree with the list-kernel path and
with sympy.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ringkit import ModRing, ZZ
from ringkit.algebra import Element
from ringkit.factor import factor_poly_fp, poly_is_irreducible_fp
from ringkit.poly import (
    F2Kernel, IntKernel, PolyRing, TowerKernel, int_kernel, prime_kernel)
from ringkit.quotient import QuotientRing

F2, LIST = int_kernel(2), IntKernel(2)

# y + 1, y^2 + y + 1, the GF(2^8) modulus of the benchmark, y^13 + y^4 +
# y^3 + y + 1 (irreducible), and y^2, which is not
MODULI = [(1, 1), (1, 1, 1), (1, 1, 0, 1, 1, 0, 0, 0, 1),
          (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 1)]


class ListF2(ModRing):
    """F_2 whose rings run IntKernel(2), the list kernel."""

    def __init__(self):
        super().__init__(2)
        self._kernel = IntKernel(2)


def _trimmed(bits):
    while bits and not bits[-1]:
        bits.pop()
    return tuple(bits)


polys = st.one_of(st.lists(st.integers(0, 1), max_size=12),
                  st.lists(st.integers(0, 1), max_size=301)).map(_trimmed)
nonconstant = polys.filter(lambda f: len(f) > 1)


@settings(max_examples=300, deadline=None)
@given(polys, polys)
def test_divmod_gcd_and_xgcd_match_the_list_kernel(a, b):
    assert F2.gcd(a, b) == LIST.gcd(a, b)
    assert F2.xgcd(a, b) == LIST.xgcd(a, b)
    if b:
        q, r = F2.divmod(a, b)
        assert (q, r) == tuple(map(list, LIST.divmod(a, b, False)))


def test_euclid_conventions_with_zero_operands():
    assert F2.gcd((), ()) == ()
    assert F2.xgcd((), ()) == ((), (1,), ())
    for a, b in [((), ()), ((1, 0, 1), ()), ((), (1, 1)), ((1,), ()),
                 ((), (1,))]:
        assert F2.gcd(a, b) == LIST.gcd(a, b)
        assert F2.xgcd(a, b) == LIST.xgcd(a, b)


@settings(max_examples=150, deadline=None)
@given(polys, nonconstant, st.sampled_from([1, 2, 3, 2**64 + 1]) |
       st.integers(1, 10**6))
def test_powmod_matches_the_list_kernel(a, f, e):
    assert F2.powmod(a, e, f) == list(LIST.powmod(a, e, f))


@settings(max_examples=100, deadline=None)
@given(polys.filter(lambda f: f and f[0]), st.integers(1, 300))
def test_series_inverse_matches_the_list_kernel(f, prec):
    assert F2.inverse(f, prec) == LIST.inverse(f, prec)


@pytest.mark.parametrize("m", MODULI)
def test_tower_inverses_match_a_tower_on_the_list_kernel(m):
    packed, oracle = TowerKernel(2, m), TowerKernel(2, m)
    oracle.fp = LIST
    assert type(packed.fp) is F2Kernel
    rng = random.Random(len(m))
    k = len(m) - 1
    cs = ([_trimmed([(i >> j) & 1 for j in range(k)]) for i in range(2**k)]
          if k <= 8 else
          [_trimmed([rng.randrange(2) for _ in range(k)]) for _ in range(300)])
    for c in cs:
        assert packed.invert(c) == oracle.invert(c)
    a = [rng.choice(cs) for _ in range(30)] + [(1,)]
    b = [rng.choice(cs) for _ in range(12)] + [(1,)]
    if m != (0, 0, 1):
        assert packed.xgcd(a, b) == oracle.xgcd(a, b)
        assert packed.divmod(a, b, False) == oracle.divmod(a, b, False)


def _both_paths(f):
    return (Element(PolyRing(ModRing(2)), f),
            Element(PolyRing(ListF2()), f))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=64).map(
    lambda c: tuple(c) + (1,)))
def test_factorizations_match_the_list_kernel_path(f):
    packed, listed = _both_paths(f)
    fac, oracle = factor_poly_fp(packed), factor_poly_fp(listed)
    assert (fac.unit, fac.factors) == (oracle.unit, oracle.factors)
    assert fac.value().val == f
    assert poly_is_irreducible_fp(packed) == poly_is_irreducible_fp(listed)


# sympy's own factor_list sorts through a deprecated comparison
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_factorizations_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2)
    for deg in list(range(1, 20)) + [24, 40, 63, 100]:
        f = tuple(rng.randrange(2) for _ in range(deg)) + (1,)
        fac = factor_poly_fp(_both_paths(f)[0])
        _, pairs = sympy.factor_list(
            sum(c * x**i for i, c in enumerate(f)), x, modulus=2)
        expected = sorted(
            (tuple(int(c) % 2 for c in reversed(
                sympy.Poly(g, x, modulus=2).all_coeffs())), m)
            for g, m in pairs)
        assert sorted(fac.factors) == expected
        assert poly_is_irreducible_fp(_both_paths(f)[0]) == (
            expected == [(f, 1)])


def test_every_f2_ring_reaches_the_packed_kernel():
    m = (1, 1, 0, 1, 1, 0, 0, 0, 1)
    kernels = [ModRing(2).kernel(), QuotientRing(ZZ, 2).kernel(),
               PolyRing(ModRing(2)).euclid_kernel(),
               prime_kernel(PolyRing(ModRing(2))),
               prime_kernel(PolyRing(QuotientRing(ZZ, 2))),
               TowerKernel(2, m).fp,
               QuotientRing(PolyRing(ModRing(2)), m).kernel().fp]
    assert all(type(K) is F2Kernel and K.n == 2 for K in kernels)
    for n in (0, 3, 4, 101):
        assert type(int_kernel(n)) is IntKernel and int_kernel(n).n == n


def test_factoring_over_f2_makes_no_list_division(monkeypatch):
    # the DDF/EDF over F_2 divide, reduce and take gcds in F2Kernel alone;
    # the same input on the list kernel shows that the counter counts
    counts = {"IntKernel.divmod": 0, "F2Kernel.gcd": 0}
    real_divmod, real_gcd = IntKernel.divmod, F2Kernel.gcd

    def divmod(self, a, b, memo=True):
        counts["IntKernel.divmod"] += 1
        return real_divmod(self, a, b, memo)

    def gcd(self, a, b):
        counts["F2Kernel.gcd"] += 1
        return real_gcd(self, a, b)

    monkeypatch.setattr(IntKernel, "divmod", divmod)
    monkeypatch.setattr(F2Kernel, "gcd", gcd)
    rng = random.Random(24)
    f = tuple(rng.randrange(2) for _ in range(24)) + (1,)
    packed, listed = _both_paths(f)
    fac = factor_poly_fp(packed)
    assert counts["IntKernel.divmod"] == 0 and counts["F2Kernel.gcd"] > 0
    assert factor_poly_fp(listed).factors == fac.factors
    assert counts["IntKernel.divmod"] > 0
