"""Polynomials and series over F_p[y]/(m), and over Z/n given as Quot(Z, n),
against the coefficient loops they replace."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import ringkit.poly
from ringkit import QQ, ZZ
from ringkit.euclid import gcd_payload, xgcd_payload
from ringkit.poly import (
    HGCD_MIN, F2Kernel, IntKernel, PolyRing, TowerKernel, prime_kernel)
from ringkit.quotient import QuotientRing
from ringkit.series import SeriesRing

from loop_bases import dense_and_loop_bases, tower_and_loop_bases

# (p, m): GF(2^8), GF(3^5), GF(101^2), F_7 as F_7[y]/(y + 3), and the
# ring F_2[y]/(y^2), whose modulus is not irreducible
FIELDS = [(2, (1, 1, 0, 1, 1, 0, 0, 0, 1)), (3, (1, 2, 0, 0, 0, 1)),
          (101, (98, 0, 1)), (7, (3, 1))]
REDUCIBLE = [(2, (0, 0, 1))]


def rings(p, m, ctx=PolyRing, *args):
    return tuple(ctx(base, *args) for base in tower_and_loop_bases(p, m))


@st.composite
def tower_operands(draw, moduli):
    p, m = draw(st.sampled_from(moduli))
    coeff = st.just([]) | st.lists(st.integers(0, p - 1), min_size=len(m) - 1,
                                   max_size=len(m) - 1)
    size = st.integers(0, 12) | st.integers(25, 32)

    def poly():
        n = draw(size)
        return draw(st.lists(coeff, min_size=n, max_size=n))

    a = poly()
    return p, m, a, None if draw(st.booleans()) else poly()


def _payloads(tower, a, b):
    a = tower.canon(a)
    return a, (a if b is None else tower.canon(b))


@settings(max_examples=150, deadline=None)
@given(tower_operands(FIELDS + REDUCIBLE))
def test_tower_products_sums_and_series_match_the_loops(case):
    p, m, a, b = case
    tower, loop = rings(p, m)
    a, b = _payloads(tower, a, b)
    want = loop.mul(a, b)
    assert tower.mul(a, b) == want
    assert tower.mul(b, a) == want
    assert tower.mul(a, a) == loop.mul(a, a)
    assert tower.add(a, b) == loop.add(a, b)
    assert tower.sub(a, b) == loop.sub(a, b)
    assert tower.sub(a, a) == ()
    assert tower.neg(a) == loop.neg(a)
    prec = max(len(a), 1)
    S, SL = rings(p, m, SeriesRing, prec)
    f, g = S._fit(a), S._fit(b)
    assert S.mul(f, g) == SL.mul(f, g)
    assert S.mul(f, f) == SL.mul(f, f)
    # sums keep the full window, zero coefficients included
    assert S.add(f, g) == SL.add(f, g)
    assert S.sub(f, g) == SL.sub(f, g)
    assert S.sub(f, f) == S.zero
    assert S.neg(f) == SL.neg(f)
    # None when the constant term is no unit: zero, or y over F_2[y]/(y^2)
    assert S.try_inverse(f) == SL.try_inverse(f)


@settings(max_examples=100, deadline=None)
@given(tower_operands(FIELDS))
def test_tower_division_gcd_and_series_inverse_match_the_loops(case):
    p, m, a, b = case
    tower, loop = rings(p, m)
    a, b = _payloads(tower, a, b)
    if b:
        assert tower.divmod_(a, b) == loop.divmod_(a, b)
        assert tower.divmod_(b, b) == ((tower.base.one,), ())
    if len(a) <= 12 and len(b) <= 12:
        assert xgcd_payload(tower, a, b) == xgcd_payload(loop, a, b)
    prec = max(len(a), 1)
    S, SL = rings(p, m, SeriesRing, prec)
    f = S._fit((tower.base.one,) + a[1:])
    assert S.try_inverse(f) == SL.try_inverse(f)
    assert S.mul(f, S.try_inverse(f)) == S.one


@pytest.mark.parametrize("p, m", FIELDS + REDUCIBLE)
def test_tower_products_at_short_and_lopsided_lengths(p, m):
    # zero coefficients inside, short and lopsided factors, a is b
    tower, loop = rings(p, m)
    rng = random.Random(p)
    k = len(m) - 1

    def element():
        return [rng.randrange(p) for _ in range(rng.randint(0, k))]

    top = [p - 1] * k
    for la in (1, 2, 3, 40):
        for lb in (1, 2, 3, 90):
            a = tower.canon([element() for _ in range(la - 1)] + [top])
            b = tower.canon([[]] * (lb - 1) + [element() or [1]])
            assert tower.mul(a, b) == loop.mul(a, b)
            assert tower.mul(b, a) == loop.mul(a, b)
            assert tower.mul(a, a) == loop.mul(a, a)
            for prec in {1, 2, la}:
                S, SL = rings(p, m, SeriesRing, prec)
                f, g = S._fit(a), S._fit(b)
                assert S.mul(f, g) == SL.mul(f, g)
    full = tower.canon([top] * 20)
    assert tower.mul(full, full) == loop.mul(full, full)
    assert tower.mul(full, ()) == ()


def test_tower_rings_make_no_quotient_calls(monkeypatch):
    # calls on the coefficient ring GF(2^8) itself: deciding that it is
    # a field runs Rabin's test in quotients of F_2[y] of its own
    tower, _ = rings(*FIELDS[0])
    calls = []
    for name in ("add", "mul", "neg"):
        def counting(self, *args, real=getattr(QuotientRing, name), name=name):
            if self is tower.base:
                calls.append(name)
            return real(self, *args)
        monkeypatch.setattr(QuotientRing, name, counting)
    rng = random.Random(8)

    def poly(n):
        return tower.canon([[rng.randrange(2) for _ in range(8)]
                            for _ in range(n)] + [[1]])

    a, b = poly(100), poly(100)
    tower.mul(a, b)
    tower.mul(a, a)
    tower.add(a, b)
    tower.sub(a, b)
    tower.neg(a)
    tower.divmod_(tower.mul(a, b), poly(60))
    S = SeriesRing(tower.base, 101)
    S.mul(S._fit(a), S._fit(b))
    S.add(S._fit(a), S._fit(b))
    S.sub(S._fit(a), S._fit(b))
    S.neg(S._fit(a))
    S.try_inverse(S._fit(b[::-1]))
    assert calls == []


@pytest.mark.parametrize("n", [2, 12, 101, 2**31 - 1])
def test_quotients_of_z_run_the_dense_kernels(n):
    zn = QuotientRing(ZZ, n)
    K = zn.kernel()
    assert type(K) is (F2Kernel if n == 2 else IntKernel)
    assert K.n == n and zn.kernel() is K
    dense, loop = PolyRing(zn), PolyRing(dense_and_loop_bases(n)[1])
    assert dense.base_kernel is K
    assert dense.euclid_kernel() is (K if n != 12 else None)
    assert (prime_kernel(dense) is K) == (n != 12)
    rng = random.Random(n)
    for la in (1, 2, 4, 5, 30):
        for lb in (1, 4, 5, 60):
            a = dense.canon([rng.randrange(n) for _ in range(la - 1)] + [1])
            b = dense.canon([rng.randrange(n) for _ in range(lb)] + [n - 1])
            assert dense.mul(a, b) == loop.mul(a, b)
            if n != 12:
                assert dense.divmod_(a, b) == loop.divmod_(a, b)
                assert xgcd_payload(dense, a, b) == xgcd_payload(loop, a, b)
            S, SL = (SeriesRing(base, la) for base in (zn, loop.base))
            f = S._fit([1] + list(a[1:]))
            assert S.mul(f, S._fit(b)) == SL.mul(f, SL._fit(b))
            assert S.try_inverse(f) == SL.try_inverse(f)


def test_quotients_of_polynomials_answer_the_tower_hook():
    tower, loop = tower_and_loop_bases(*FIELDS[0])
    K = tower.kernel()
    assert type(K) is TowerKernel and (K.p, K.m) == FIELDS[0]
    assert tower.kernel() is K
    assert PolyRing(tower).euclid_kernel() is K
    assert prime_kernel(PolyRing(tower)) is None
    assert loop.kernel() is None
    assert QuotientRing(PolyRing(QQ), (-2, 0, 1)).kernel() is None
    # F_5 as Quot(Z, 5) is a prime kernel too; a tower over a tower is not
    gf25 = QuotientRing(PolyRing(QuotientRing(ZZ, 5)), (2, 0, 1))
    assert (gf25.kernel().p, gf25.kernel().m) == (5, (2, 0, 1))
    assert QuotientRing(PolyRing(tower), [[1], [], [1]]).kernel() is None


# (p, m) of GF(4), GF(8), GF(9), GF(2^8) and GF(101^2)
GF = [(2, (1, 1, 1)), (2, (1, 1, 0, 1)), (3, (1, 0, 1)), FIELDS[0],
      FIELDS[2]]


@st.composite
def gf_pairs(draw):
    """Operands of gcd and xgcd, half-gcd sized or short, with zero
    operands and planted common factors."""
    p, m = draw(st.sampled_from(GF))
    rng = draw(st.randoms(use_true_random=False))
    ring = PolyRing(tower_and_loop_bases(p, m)[0])

    def poly(deg):
        if deg < 0:
            return ()
        coeffs = [[rng.randrange(p) for _ in m[1:]] for _ in range(deg)]
        return ring.canon(coeffs + [[1 + rng.randrange(p - 1)]])

    size = st.integers(-1, 12) | st.integers(HGCD_MIN - 4, HGCD_MIN + 8)
    a, b = poly(draw(size)), poly(draw(size))
    shape = draw(st.sampled_from(["random", "planted", "zero", "equal"]))
    if shape == "planted":
        c = poly(draw(st.integers(1, 24)))
        a, b = ring.mul(a, c), ring.mul(b, c)
    elif shape == "zero":
        a = ()
    elif shape == "equal":
        b = a
    return p, m, a, b


@settings(max_examples=40, deadline=None)
@given(gf_pairs())
def test_gcd_and_xgcd_over_gf_q_equal_the_classical_loop(case):
    p, m, a, b = case
    tower, loop = rings(p, m)
    for x, y in ((a, b), (b, a)):
        assert gcd_payload(tower, x, y) == gcd_payload(loop, x, y)
        assert xgcd_payload(tower, x, y) == xgcd_payload(loop, x, y)


def test_degree_200_xgcd_over_gf256_takes_the_half_gcd(monkeypatch):
    # a fall back to the generic loop shows as QuotientRing calls on the
    # coefficient field, and the half-gcd as calls of _hgcd
    tower, loop = rings(*FIELDS[0])
    rng = random.Random(200)

    def poly(deg):
        return tower.canon([[rng.randrange(2) for _ in range(8)]
                            for _ in range(deg)] + [[1]])

    a, b = poly(200), poly(199)
    want = xgcd_payload(loop, a, b)
    counts = {"_hgcd": 0, "QuotientRing.mul": 0}
    real_hgcd, real_mul = ringkit.poly._hgcd, QuotientRing.mul

    def hgcd(*args):
        counts["_hgcd"] += 1
        return real_hgcd(*args)

    def mul(self, x, y):
        counts["QuotientRing.mul"] += 1
        return real_mul(self, x, y)

    monkeypatch.setattr(ringkit.poly, "_hgcd", hgcd)
    monkeypatch.setattr(QuotientRing, "mul", mul)
    assert xgcd_payload(tower, a, b) == want
    assert counts["QuotientRing.mul"] == 0
    assert counts["_hgcd"] > 0


@pytest.mark.parametrize("n", [12, 0])
def test_sums_and_negatives_over_z_mod_n_and_z_match_the_loops(n):
    dense, loop = dense_and_loop_bases(n)
    rng = random.Random(n)

    def coeff():
        return rng.randrange(n) if n else rng.randint(-9, 9)

    for la in (0, 1, 3, 17):
        for lb in (0, 1, 4, 17):
            a = [coeff() for _ in range(la)]
            b = [coeff() for _ in range(lb)]
            if la == lb and la:
                b[-1] = -a[-1] % n if n else -a[-1]  # the sum drops degree
            R, RL = PolyRing(dense), PolyRing(loop)
            a, b = R.canon(a), R.canon(b)
            assert R.add(a, b) == RL.add(a, b)
            assert R.sub(a, b) == RL.sub(a, b)
            assert R.neg(a) == RL.neg(a)
            assert R.sub(a, a) == ()
            for prec in (1, 4, 17):
                S, SL = SeriesRing(dense, prec), SeriesRing(loop, prec)
                f, g = S._fit(a), S._fit(b)
                for got, want in ((S.add(f, g), SL.add(f, g)),
                                  (S.sub(f, g), SL.sub(f, g)),
                                  (S.neg(f), SL.neg(f)),
                                  (S.sub(f, f), S.zero)):
                    # the window stays full, zero coefficients included
                    assert got == want and len(got) == prec


@pytest.mark.parametrize("cut", [2, 5])
def test_deep_half_gcd_recursion_over_gf_q_equals_the_classical_loop(
        cut, monkeypatch):
    # a tiny threshold runs the recursion many levels deep on small inputs
    monkeypatch.setattr(ringkit.poly, "HGCD_MIN", cut)
    monkeypatch.setattr(ringkit.poly, "GCD_HGCD_MIN", cut)
    rng = random.Random(cut)
    for p, m in GF:
        tower, loop = rings(p, m)

        def poly(deg):
            return tower.canon([[rng.randrange(p) for _ in m[1:]]
                                for _ in range(deg)] + [[1]])

        for _ in range(4):
            a, b = poly(rng.randrange(30)), poly(rng.randrange(30))
            if rng.random() < 0.5:
                c = poly(rng.randrange(1, 8))
                a, b = tower.mul(a, c), tower.mul(b, c)
            assert gcd_payload(tower, a, b) == gcd_payload(loop, a, b)
            assert xgcd_payload(tower, a, b) == xgcd_payload(loop, a, b)
