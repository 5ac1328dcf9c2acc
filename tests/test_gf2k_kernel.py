"""GF(2^k)[x] on packed ints (gf2.GF2kKernel) against two oracles.

TowerKernel(2, m) with IntKernel(2) as its F_2 kernel runs the same list
interface by Kronecker products, Newton division and half-gcd on lists,
and a polynomial ring over LoopQuot (loop_bases.py) makes one call into
F_2[y]/(m) per coefficient operation.  Quotients, remainders, gcds,
cofactors, powers, coefficient inverses and series inverses must be
equal, over GF(2^k) for k = 1, 2, 3, 8 and 13 and, where no field is
needed, over the ring F_2[y]/(y^2).
"""

import random

from hypothesis import given, settings, strategies as st

from ringkit.euclid import gcd_payload, xgcd_payload
from ringkit.gf2 import GF2kKernel
from ringkit.poly import IntKernel, PolyRing, TowerKernel
from ringkit.series import SeriesRing

from loop_bases import tower_and_loop_bases

# irreducible of degree 1, 2, 3, 8 (the benchmark's GF(2^8)) and 13
FIELDS = [(1, 1), (1, 1, 1), (1, 1, 0, 1), (1, 1, 0, 1, 1, 0, 0, 0, 1),
          (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)]
REDUCIBLE = (0, 0, 1)


def _setup(m):
    """(the packed kernel, TowerKernel on the list kernel, the ring over
    the packed kernel, the ring over the loop base) for F_2[y]/(m)."""
    tower = TowerKernel(2, m)
    tower.fp = IntKernel(2)
    packed, loop = (PolyRing(base) for base in tower_and_loop_bases(2, m))
    assert type(packed.base_kernel) is GF2kKernel
    return packed.base_kernel, tower, packed, loop


RINGS = {m: _setup(m) for m in FIELDS + [REDUCIBLE]}


@st.composite
def operands(draw, moduli, count=2):
    """m and count polynomials over F_2[y]/(m) of 0-12 or 25-70
    coefficients, canonical; the top coefficient is nonzero."""
    m = draw(st.sampled_from(moduli))
    ring = RINGS[m][2]
    coeff = st.lists(st.integers(0, 1), min_size=len(m) - 1,
                     max_size=len(m) - 1)
    polys = []
    for _ in range(count):
        n = draw(st.integers(0, 12) | st.integers(25, 70))
        polys.append(ring.canon(draw(st.lists(coeff, min_size=n,
                                              max_size=n))))
    return (m, *polys)


def _powmod(ring, a, e, f):
    """a^e mod f by square and multiply through the ring."""
    def rem(x):
        return ring.divmod_(x, f)[1]

    out = a = rem(a)
    for bit in bin(e)[3:]:
        out = rem(ring.mul(out, out))
        if bit == "1":
            out = rem(ring.mul(out, a))
    return out


@settings(max_examples=120, deadline=None)
@given(operands(FIELDS + [REDUCIBLE]))
def test_products_and_series_inverses_match_both_oracles(case):
    m, a, b = case
    K, tower, packed, loop = RINGS[m]
    assert packed.mul(a, b) == loop.mul(a, b)
    assert K.mul(a, b) == tower.mul(a, b)
    prec = max(len(b), 1)
    S, SL = SeriesRing(packed.base, prec), SeriesRing(loop.base, prec)
    f = S._fit(b)
    assert S.try_inverse(f) == SL.try_inverse(f)
    if b and K.invert(b[0]) is not None:
        assert K.inverse(b, prec) == tower.inverse(b, prec)


@settings(max_examples=80, deadline=None)
@given(operands(FIELDS, 3))
def test_division_gcd_and_xgcd_match_both_oracles(case):
    # the third pair shares a planted factor of at most 6 coefficients
    m, a, b, c = case
    K, tower, packed, loop = RINGS[m]
    c = packed.canon(c[:6])
    for x, y in ((a, b), (b, a), (packed.mul(a, c), packed.mul(b, c))):
        want = gcd_payload(loop, x, y)
        assert gcd_payload(packed, x, y) == want
        assert K.gcd(x, y) == tower.gcd(x, y) == want
        want = xgcd_payload(loop, x, y)
        assert xgcd_payload(packed, x, y) == want
        assert K.xgcd(x, y) == tower.xgcd(x, y) == want
        if y:
            want = loop.divmod_(x, y)
            assert packed.divmod_(x, y) == want
            assert tuple(map(tuple, K.divmod(x, y))) == \
                tuple(map(tuple, tower.divmod(x, y, False))) == want


@settings(max_examples=60, deadline=None)
@given(operands(FIELDS), st.sampled_from([1, 2, 3, 256]) |
       st.integers(1, 2**20))
def test_powers_match_both_oracles(case, e):
    m, a, f = case
    K, tower, packed, loop = RINGS[m]
    if len(f) < 2:
        f = packed.canon([[1], [1], [1]])
    want = _powmod(loop, a, e, f)
    assert tuple(K.powmod(a, e, f)) == want
    assert tuple(tower.powmod(a, e, f)) == want


def test_coefficient_inverses_are_the_oracles_and_none_on_non_units():
    rng = random.Random(13)
    for m in FIELDS + [REDUCIBLE]:
        K, tower, _, loop = RINGS[m]
        k = len(m) - 1
        ints = range(2**k) if k <= 8 else \
            [0, 1] + [rng.randrange(2**k) for _ in range(300)]
        for x in ints:
            c = loop.base.canon([x >> j & 1 for j in range(k)])
            inv = K.invert(c)
            assert inv == tower.invert(c) == loop.base.try_inverse(c)
            assert (inv is None) == (not c or m == REDUCIBLE and not c[0])


def test_euclid_conventions_with_zero_and_constant_operands():
    K, tower, _, _ = RINGS[FIELDS[3]]
    assert K.gcd((), ()) == tower.gcd((), ()) == ()
    assert K.xgcd((), ()) == tower.xgcd((), ()) == ((), ((1,),), ())
    for a, b in [((), ((0, 1),)), (((0, 1),), ()), (((1, 1), (1,)), ()),
                 ((), ((0, 0, 1), (1,))), (((1, 0, 1),), ((0, 1), (1,)))]:
        assert K.gcd(a, b) == tower.gcd(a, b)
        assert K.xgcd(a, b) == tower.xgcd(a, b)
