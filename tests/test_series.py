"""Truncated power series: Cauchy products, inversion, order, Laurent."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringkit import (
    ModRing,
    OrderVal,
    QQ,
    ZZ,
    laurent_from_fraction,
    laurent_show,
    series_ring,
    ts_add,
    ts_invert,
    ts_mul,
    ts_ord,
    ts_truncate,
)
from ringkit.errors import (
    ConstantTermNotUnit,
    DenominatorIndistinguishableFromZero,
    InvalidParameters,
    NotAField,
    TooLarge,
)
from ringkit.poly import KRONECKER_MIN, NEWTON_MIN
from ringkit.series import SeriesRing

from loop_bases import dense_and_loop_bases

S7 = series_ring(ModRing(7), 5)

f7_series = st.lists(st.integers(0, 6), min_size=0, max_size=5).map(S7.element)


def test_payload_is_exactly_the_precision_window():
    S = series_ring(QQ, 4)
    assert S.element([1, 2]).val == (1, 2, 0, 0)
    assert S.element([1, 2, 3, 4, 99, 99]).val == (1, 2, 3, 4)
    assert len(S.element([]).val) == 4


def test_series_ring_guards():
    with pytest.raises(InvalidParameters):
        series_ring(QQ, 0)
    # one coefficient per unit of precision, within the work budget of 10^6
    with pytest.raises(TooLarge):
        series_ring(ZZ, 10**6 + 1)
    assert series_ring(ZZ, 10**6).prec == 10**6


def test_z9_truncated_product_fixture():
    S = series_ring(ModRing(9), 5)
    f = S.element([2, 7, 3, 0, 5])
    g = S.element([6, 0, 1, 0, 8])
    assert ts_mul(f, g).val == (3, 6, 2, 7, 4)
    assert S.is_unit(f.val)
    assert not S.is_unit(g.val)


def test_inversion_fixtures():
    S = series_ring(ModRing(7), 4)
    assert ts_invert(S.element([2, 6, 5, 6])).val == (4, 2, 5, 3)
    SQ = series_ring(QQ, 5)
    geo = ts_invert(SQ.element([1, -1]))
    assert geo.val == (1, 1, 1, 1, 1)


def test_inversion_needs_a_unit_constant_term():
    S = series_ring(ModRing(9), 3)
    with pytest.raises(ConstantTermNotUnit):
        ts_invert(S.element([6, 1]))
    with pytest.raises(ConstantTermNotUnit):
        ts_invert(series_ring(QQ, 3).element([0, 1]))


@given(f7_series)
def test_inverse_is_two_sided_at_precision(f):
    if f.val[0] == 0:
        return
    inv = ts_invert(f)
    assert ts_mul(f, inv) == S7.element([1])
    assert ts_mul(inv, f) == S7.element([1])


def test_binary_ops_meet_at_the_smaller_precision():
    a = series_ring(QQ, 6).element([1, 1, 1, 1, 1, 1])
    b = series_ring(QQ, 3).element([1, 2, 3])
    s = ts_add(a, b)
    assert s.ctx.prec == 3
    assert s.val == (2, 3, 4)


def test_order_values():
    S = series_ring(QQ, 6)
    assert ts_ord(S.element([0, 0, 3, 1])) == OrderVal.known(2)
    assert ts_ord(S.element([5])) == OrderVal.known(0)
    assert ts_ord(S.element([])) == OrderVal.at_least(6)
    assert str(OrderVal.known(3)) == "3"
    assert str(OrderVal.at_least(4)) == ">=4"


@given(f7_series, f7_series)
def test_order_additivity_up_to_the_window(f, g):
    of, og, ofg = ts_ord(f), ts_ord(g), ts_ord(ts_mul(f, g))
    if of.is_known and og.is_known and of.n + og.n < 5:
        assert ofg == OrderVal.known(of.n + og.n)


def test_truncation_shrinks_only():
    S = series_ring(QQ, 5)
    f = S.element([1, 2, 3, 4, 5])
    t = ts_truncate(f, 2)
    assert t.ctx.prec == 2 and t.val == (1, 2)
    with pytest.raises(InvalidParameters):
        ts_truncate(f, 9)


def test_nilpotence_is_decided_by_the_constant_term():
    S = series_ring(ModRing(4), 3)
    assert S.is_nilpotent(S.element([2, 1, 3]).val)
    assert not S.is_nilpotent(S.element([1, 2]).val)
    SQ = series_ring(QQ, 3)
    assert SQ.is_nilpotent(SQ.element([0, 5, 1]).val)


def test_parse_show_round_trip():
    S = series_ring(ModRing(7), 4)
    f = S.element([2, 6, 5, 6])
    assert repr(f) == "[2,6,5,6;4]"
    assert S.parse_element(repr(f)) == f
    assert S.parse_element("1+3*x^2").val == (1, 0, 3, 0)


def test_laurent_fixture_over_q():
    S = series_ring(QQ, 6)
    ls = laurent_from_fraction(S.element([1]), S.element([0, 0, 1, 3]))
    assert ls.principal == ((-2, Fraction(1)), (-1, Fraction(-3)))
    assert ls.tail.val == (Fraction(9), Fraction(-27))
    assert ls.order() == OrderVal.known(-2)
    assert laurent_show(ls) == "x^-2-3*x^-1+9-27*x+O(x^2)"


def test_laurent_fixture_over_f5():
    S = series_ring(ModRing(5), 4)
    num = S.element([1, 4, 2, 0])
    den = S.element([0, 1, 3, 1])
    ls = laurent_from_fraction(num, den)
    assert ls.principal == ((-1, 1),)
    assert ls.tail.val[:2] == (1, 3)


def test_laurent_with_no_principal_part():
    S = series_ring(QQ, 4)
    ls = laurent_from_fraction(S.element([0, 1]), S.element([1, 1]))
    assert ls.principal == ()
    assert ls.order() == OrderVal.known(1)
    assert ls.tail.val == (0, 1, -1, 1)


def test_laurent_guards():
    SQ = series_ring(QQ, 4)
    SZ = series_ring(ZZ, 4)
    with pytest.raises(NotAField):
        laurent_from_fraction(SZ.element([1]), SZ.element([0, 1]))
    with pytest.raises(DenominatorIndistinguishableFromZero):
        laurent_from_fraction(SQ.element([1]), SQ.element([]))
    with pytest.raises(InvalidParameters):
        laurent_from_fraction(SQ.element([1]), SQ.element([0, 0, 0, 1]))


# -- dense kernels over Z and Z/n ------------------------------------------

@st.composite
def dense_series(draw):
    n = draw(st.sampled_from([101, 12, 0]))
    prec = draw(st.integers(1, 120) | st.sampled_from(
        [KRONECKER_MIN - 1, KRONECKER_MIN, NEWTON_MIN - 1, NEWTON_MIN]))
    rng = draw(st.randoms(use_true_random=False))
    if n:
        a = [rng.randrange(n) for _ in range(prec)]
        b = [rng.randrange(n) for _ in range(prec)]
        a[0] = rng.choice([1, 5, 7, 11] if n == 12 else range(1, n))
    else:
        a = [rng.randint(-10**20, 10**20) for _ in range(prec)]
        b = [rng.randint(-10**20, 10**20) for _ in range(prec)]
        a[0] = rng.choice([1, -1])
    if rng.random() < 0.1:
        b = [0] * prec
    return n, prec, a, b


def dense_and_loop(n, prec):
    return tuple(SeriesRing(base, prec) for base in dense_and_loop_bases(n))


@settings(max_examples=150, deadline=None)
@given(dense_series())
def test_dense_series_match_the_coefficient_loops(case):
    n, prec, a, b = case
    dense, loop = dense_and_loop(n, prec)
    a, b = dense.canon(a), dense.canon(b)
    assert dense.mul(a, b) == loop.mul(a, b)
    assert dense.mul(b, b) == loop.mul(b, b)
    inv = dense.try_inverse(a)
    assert inv == loop.try_inverse(a)
    assert dense.mul(a, inv) == dense.one


def test_dense_series_products_with_zero_over_z():
    for prec in (KRONECKER_MIN, 8, NEWTON_MIN):
        S = series_ring(ZZ, prec)
        zero = S.element([])
        for c in (200, -200, 10**30):
            f = S.element([c, 1, -c])
            assert zero * f == zero
            assert f * zero == zero
            assert 0 * f == zero
            assert S.mul(S.zero, f.val) == S.zero


def test_dense_series_inversion_over_z_with_a_vanishing_correction():
    dense, loop = dense_and_loop(0, 48)
    f = dense.canon([200**i for i in range(48)])
    assert ts_invert(dense.element(f)).val == (1, -200) + (0,) * 46
    assert dense.try_inverse(f) == loop.try_inverse(f)


def test_dense_inversion_still_needs_a_unit_constant_term():
    rng = random.Random(5)
    for base, c0 in ((ModRing(12), 4), (ModRing(101), 0), (ZZ, 2), (ZZ, 0)):
        for prec in (KRONECKER_MIN, NEWTON_MIN, 120):
            S = series_ring(base, prec)
            f = S.element([c0] + [rng.randrange(12) for _ in range(prec - 1)])
            with pytest.raises(ConstantTermNotUnit):
                ts_invert(f)


def test_dense_series_products_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(9)
    S = series_ring(ModRing(101), 60)
    a = S.canon([rng.randrange(101) for _ in range(60)])
    b = S.canon([rng.randrange(101) for _ in range(60)])
    prod = (sympy.Poly(list(reversed(a)), x, modulus=101)
            * sympy.Poly(list(reversed(b)), x, modulus=101))
    want = [int(c) for c in reversed(prod.all_coeffs())][:60]
    assert S.mul(a, b) == S.canon(want)
