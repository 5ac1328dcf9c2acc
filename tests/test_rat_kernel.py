"""Q[x] on integer numerators (poly.RatKernel) against the coefficient
loops over LoopQ, which run one Fraction operation per coefficient and
Euclid through the context, and Euclid over Z on plain ints against the
loop through IntegerRing."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringkit import QQ, ZZ
from ringkit.euclid import gcd_payload, xgcd_payload
from ringkit.poly import (
    IntKernel, LoopKernel, PolyRing, RatKernel, _primitive_prs)
from ringkit.series import SeriesRing
from loop_bases import LoopQ, LoopZ

QP, LP = PolyRing(QQ), PolyRing(LoopQ())

coeffs = st.just(Fraction(0)) | st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**6)


def q_polys(max_deg):
    return st.lists(coeffs, max_size=max_deg + 1).map(QP.canon)


@st.composite
def q_pairs(draw, max_deg=60):
    """(a, b), either one possibly zero or of lower degree than the other:
    unrelated, b = a, or both times a common factor."""
    a, b = draw(q_polys(max_deg)), draw(q_polys(max_deg))
    kind = draw(st.sampled_from(["free", "equal", "common"]))
    if kind == "equal":
        b = a
    elif kind == "common":
        h = draw(q_polys(max_deg // 4))
        a, b = QP.mul(a, h), QP.mul(b, h)
    return a, b


def same(x, y):
    """Equal payloads, Fractions in the same places."""
    return x == y and repr(x) == repr(y)


def test_q_rings_run_the_rat_kernel_and_loop_q_the_loops():
    assert type(QP.base_kernel) is type(QP.euclid_kernel()) is RatKernel
    assert QP.base_kernel is QQ.kernel() is SeriesRing(QQ, 3).base_kernel
    assert type(LP.base_kernel) is LoopKernel
    assert LP.euclid_kernel() is None


@settings(max_examples=150, deadline=None)
@given(q_pairs())
def test_products_sums_and_negatives_match_the_loops(case):
    a, b = case
    for op in (QP.mul, QP.add, QP.sub):
        assert same(op(a, b), getattr(LP, op.__name__)(a, b))
    assert same(QP.mul(a, a), LP.mul(a, a))
    assert same(QP.neg(a), LP.neg(a))


@settings(max_examples=150, deadline=None)
@given(q_pairs())
def test_division_matches_the_loop(case):
    a, b = case
    for num, den in ((a, b), (b, a), (QP.mul(a, b), b)):
        if den:
            assert same(QP.divmod_(num, den), LP.divmod_(num, den))


@settings(max_examples=120, deadline=None)
@given(q_pairs(max_deg=40))
def test_gcd_and_xgcd_match_the_classical_loop(case):
    a, b = case
    for x, y in ((a, b), (b, a)):
        assert same(gcd_payload(QP, x, y), gcd_payload(LP, x, y))
        assert same(xgcd_payload(QP, x, y), xgcd_payload(LP, x, y))


@settings(max_examples=80, deadline=None)
@given(q_polys(60), st.integers(1, 60))
def test_series_inverse_and_product_match_the_loops(f, prec):
    f = f or (Fraction(1),)
    S, L = SeriesRing(QQ, prec), SeriesRing(LoopQ(), prec)
    a = S.canon(f)
    assert same(S.try_inverse(a), L.try_inverse(a))
    assert same(S.mul(a, a), L.mul(a, a))
    assert same(S.add(a, a), L.add(a, a))


def test_edge_cases_match_the_loops():
    a = QP.canon([Fraction(1, 3), Fraction(-2, 7), 0, Fraction(5, 6)])
    one = QP.one
    for x, y in (((), ()), (a, ()), ((), a), (a, a), (a, one), (one, a),
                 ((Fraction(3, 4),), (Fraction(-5, 2),))):
        assert same(gcd_payload(QP, x, y), gcd_payload(LP, x, y))
        assert same(xgcd_payload(QP, x, y), xgcd_payload(LP, x, y))
        assert same(QP.mul(x, y), LP.mul(x, y))
        if y:
            assert same(QP.divmod_(x, y), LP.divmod_(x, y))
    assert xgcd_payload(QP, (), ()) == ((), (1,), ())


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(22)

    def rand_poly(deg):
        return QP.canon([Fraction(rng.randint(-10**6, 10**6),
                                  rng.randint(1, 10**6))
                         for _ in range(deg + 1)])

    def to_sympy(f):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(f)], x, domain=sympy.QQ)

    for da, db, dh in ((3, 2, 1), (8, 8, 0), (20, 12, 5), (40, 35, 20)):
        h = rand_poly(dh)
        a, b = QP.mul(rand_poly(da), h), QP.mul(rand_poly(db), h)
        want = to_sympy(a).gcd(to_sympy(b)).all_coeffs()
        assert gcd_payload(QP, a, b) == QP.canon(
            [Fraction(int(c.p), int(c.q)) for c in reversed(want)])


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
def test_euclid_over_z_on_ints_matches_the_context_loop(a, b):
    loop = LoopZ()
    for x, y in ((a, b), (b, a), (a, 0), (0, b), (a, a), (a, -a)):
        assert gcd_payload(ZZ, x, y) == gcd_payload(loop, x, y)
        assert xgcd_payload(ZZ, x, y) == xgcd_payload(loop, x, y)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=30),
       st.lists(st.integers(-10**6, 10**6), max_size=30))
def test_primitive_prs_rows_are_primitive_bezout_rows(a, b):
    # the last row (r, s, t) with r != 0 has r = s a + t b on the ints and
    # no common factor: each row is divided by its content
    ints = IntKernel(0)
    a, b = ints.trim(a), ints.trim(b)
    if not (a or b):
        return
    r, s, t = _primitive_prs([a, [1], []], [b, [], [1]])
    assert r == ints.add(ints.mul(s, a), ints.mul(t, b))
    assert math.gcd(*r, *s, *t) == 1
