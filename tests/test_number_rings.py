"""Scalar contexts: Z, Q, Z_n, quadratic rings, quaternions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ringkit import (
    Element,
    GAUSSIAN,
    HH,
    ModRing,
    PolyRing,
    QQ,
    QuadFieldRing,
    QuadIntRing,
    ZZ,
    euler_phi,
    extended_gcd,
    fundamental_unit_search,
    gaussian_divmod,
    imaginary_unit_group,
    pythagorean_triple,
    quad_conj,
    quad_inverse,
    quad_is_unit,
    quad_norm,
    quat_conj,
    quat_from_pair,
    quat_inverse,
    quat_norm_sq,
    sum_of_two_squares,
)
from ringkit.errors import (
    DivisionByZero,
    InvalidParameters,
    NotInvertible,
    ParseError,
)
from ringkit.intutil import is_prime, is_squarefree

quad_pairs = st.tuples(st.integers(-30, 30), st.integers(-30, 30))
rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


def test_integer_division_is_canonical():
    assert ZZ.divmod_(7, 3) == (2, 1)
    assert ZZ.divmod_(-7, 3) == (-3, 2)
    assert ZZ.divmod_(7, -3) == (-2, 1)
    assert ZZ.divmod_(-7, -3) == (3, 2)
    with pytest.raises(DivisionByZero):
        ZZ.divmod_(1, 0)


def test_rational_field_arithmetic():
    a = QQ.element(Fraction(2, 3))
    b = QQ.element(Fraction(-1, 6))
    assert (a + b).val == Fraction(1, 2)
    assert (a / b).val == Fraction(-4)
    assert QQ.parse_element("2/3").val == Fraction(2, 3)


def test_rational_inverse_is_exact_for_an_int_payload():
    inv = Element(QQ, 3).inverse().val
    assert inv == Fraction(1, 3) and isinstance(inv, Fraction)


def test_bezout_over_q_x_from_int_payloads():
    Qx = PolyRing(QQ)
    a, b = Element(Qx, (1, 0, 3)), Element(Qx, (2, 3))
    cert = extended_gcd(a, b)
    assert cert.g == 1
    assert cert.check(a, b)
    assert all(isinstance(c, Fraction) for c in cert.x.val + cert.y.val)


def test_mod_ring_rejects_silly_moduli():
    with pytest.raises(InvalidParameters):
        ModRing(0)
    with pytest.raises(InvalidParameters):
        ModRing(-5)


def test_mod_ring_flags_track_primality():
    assert ModRing(7).is_field
    assert not ModRing(8).is_field
    assert not ModRing(8).is_domain
    assert ModRing(1).is_commutative


def test_mod_inverse_error_carries_the_gcd():
    with pytest.raises(NotInvertible) as exc:
        ModRing(9).element(6).inverse()
    assert exc.value.gcd == 3


@given(st.integers(0, 11), st.integers(0, 11))
def test_mod_12_addition_matches_integers(a, b):
    z12 = ModRing(12)
    assert (z12.element(a) + z12.element(b)).val == (a + b) % 12


def test_quad_ring_construction_guards():
    with pytest.raises(InvalidParameters):
        QuadIntRing(4)
    with pytest.raises(InvalidParameters):
        QuadIntRing(12)
    with pytest.raises(InvalidParameters):
        QuadIntRing(1)
    assert QuadIntRing(-1).is_euclidean
    assert not QuadIntRing(-5).is_gcd_domain
    assert not QuadIntRing(2).is_euclidean


@given(quad_pairs, quad_pairs)
def test_gaussian_norm_is_multiplicative(a, b):
    G = GAUSSIAN
    x, y = G.element(a), G.element(b)
    assert quad_norm(x * y) == quad_norm(x) * quad_norm(y)


@given(quad_pairs, quad_pairs)
def test_quad_minus5_norm_is_multiplicative(a, b):
    R = QuadIntRing(-5)
    x, y = R.element(a), R.element(b)
    assert quad_norm(x * y) == quad_norm(x) * quad_norm(y)


@given(quad_pairs)
def test_quad_conjugate_gives_the_norm(a):
    G = GAUSSIAN
    x = G.element(a)
    assert x * quad_conj(x) == G.element((quad_norm(x), 0))


def test_gaussian_division_fixture():
    q, r = gaussian_divmod(GAUSSIAN.element((3, -4)), GAUSSIAN.element((2, 5)))
    assert q.val == (0, -1)
    assert r.val == (-2, -2)
    assert quad_norm(r) == 8 < 29


@given(quad_pairs, quad_pairs.filter(lambda b: b != (0, 0)))
def test_gaussian_division_shrinks_the_norm(a, b):
    G = GAUSSIAN
    x, y = G.element(a), G.element(b)
    q, r = gaussian_divmod(x, y)
    assert x == q * y + r
    assert quad_norm(r) < quad_norm(y)


def test_gaussian_units_and_inverses():
    units = imaginary_unit_group(-1)
    assert [repr(u) for u in units] == ["1", "-1", "i", "-i"]
    for u in units:
        assert quad_is_unit(u)
        assert u * quad_inverse(u) == GAUSSIAN.element((1, 0))
    assert not quad_is_unit(GAUSSIAN.element((1, 1)))


def test_imaginary_units_collapse_to_plus_minus_one():
    assert len(imaginary_unit_group(-2)) == 2
    assert len(imaginary_unit_group(-5)) == 2


def test_real_quadratic_fundamental_units():
    assert fundamental_unit_search(2, 100).val == (1, 1)
    assert fundamental_unit_search(3, 100).val == (2, 1)
    assert fundamental_unit_search(61, 10**20).val == (29718, 3805)
    assert fundamental_unit_search(61, 29717) is None


def _units_by_norm_scan(d):
    units = [(1, 0), (-1, 0)]
    b = 1
    while -d * b * b <= 1:
        if -d * b * b == 1:
            units.extend([(0, b), (0, -b)])
        b += 1
    return units


def _real_less(u, v, d):
    # a1 + b1*sqrt(d) < a2 + b2*sqrt(d), exactly, for d > 0
    p, q = u[0] - v[0], u[1] - v[1]
    if p >= 0 and q >= 0:
        return False
    if p <= 0 and q <= 0:
        return p != 0 or q != 0
    if q > 0:
        return p * p > q * q * d
    return p * p < q * q * d


def _fundamental_unit_by_box(d, bound):
    best = None
    for b in range(1, bound + 1):
        for a in range(0, bound + 1):
            if abs(a * a - d * b * b) == 1:
                if best is None or _real_less((a, b), best, d):
                    best = (a, b)
    return best


def test_unit_closed_forms_match_the_search_loops():
    for d in range(-60, 0):
        if is_squarefree(d):
            assert [u.val for u in imaginary_unit_group(d)] == \
                _units_by_norm_scan(d)
    for d in range(2, 120):
        if is_squarefree(d):
            for bound in (1, 2, 5, 10, 30, 70, 120):
                unit = fundamental_unit_search(d, bound)
                assert (unit and unit.val) == _fundamental_unit_by_box(
                    d, bound), (d, bound)


def test_quad_field_inverts_by_norm():
    K = QuadFieldRing(-1)
    x = K.element((Fraction(1), Fraction(2)))
    assert (x * x.inverse()).val == (Fraction(1), Fraction(0))
    K2 = QuadFieldRing(2)
    y = K2.element((Fraction(1), Fraction(1)))
    assert (y * y.inverse()).val == (Fraction(1), Fraction(0))


def test_sum_of_two_squares():
    assert sum_of_two_squares(2).val == (1, 1)
    assert sum_of_two_squares(13).val == (2, 3)
    assert sum_of_two_squares(7) is None
    assert sum_of_two_squares(10**18 + 9).val == (3, 10**9)


def _two_squares_by_scan(p):
    a = 0
    while a * a * 2 <= p:
        b = math.isqrt(p - a * a)
        if a * a + b * b == p:
            return (a, b)
        a += 1
    return None


def test_cornacchia_matches_the_scan_on_every_prime_below_2e5():
    for p in filter(is_prime, range(2 * 10**5)):
        found = sum_of_two_squares(p)
        assert (found and found.val) == _two_squares_by_scan(p), p


def test_pythagorean_triples_from_gaussian_squares():
    assert pythagorean_triple(2, 1) == (3, 4, 5)
    assert pythagorean_triple(3, 2) == (5, 12, 13)
    a, b, c = pythagorean_triple(7, 4)
    assert a * a + b * b == c * c


def test_quaternion_hamilton_table():
    def unit(idx):
        v = [0, 0, 0, 0]
        v[idx] = 1
        return HH.element(tuple(v))

    one, i, j, k = (unit(t) for t in range(4))
    assert i * j == k and j * k == i and k * i == j
    assert j * i == -k and k * j == -i and i * k == -j
    assert i * i == j * j == k * k == -one


def test_quaternions_do_not_commute():
    a = HH.element((0, 1, 0, 0))
    b = HH.element((0, 0, 1, 0))
    assert a * b != b * a


@given(st.lists(rationals, min_size=4, max_size=4))
def test_quaternion_inverse(vals):
    x = HH.element(tuple(vals))
    if quat_norm_sq(x) == 0:
        return
    assert x * quat_inverse(x) == HH.element((1, 0, 0, 0))
    assert quat_inverse(x) * x == HH.element((1, 0, 0, 0))


@given(st.lists(rationals, min_size=4, max_size=4))
def test_quaternion_conjugate_recovers_the_norm(vals):
    x = HH.element(tuple(vals))
    n = x * quat_conj(x)
    assert n.val == (quat_norm_sq(x), 0, 0, 0)


def test_quat_from_complex_pair():
    z = quat_from_pair(GAUSSIAN.element((2, 3)), GAUSSIAN.element((1, -1)))
    assert z.val == (2, 3, 1, -1)
    w = quat_from_pair(GAUSSIAN.element((0, 1)), GAUSSIAN.element((0, 0)))
    assert w == HH.element((0, 1, 0, 0))


def test_quad_and_quaternion_parse_show_round_trip():
    G = GAUSSIAN
    for text in ("3+4i", "-2i", "7", "1-i"):
        x = G.parse_element(text)
        assert G.parse_element(repr(x)) == x
    for text in ("2+3j", "5i-k", "1+i+j+k", "-1"):
        x = HH.parse_element(text)
        assert HH.parse_element(repr(x)) == x
    R = QuadIntRing(-5)
    x = R.parse_element("1+s")
    assert x.val == (1, 1) and repr(x) == "1+s"


def test_quad_parse_rejects_garbage():
    with pytest.raises(ParseError):
        GAUSSIAN.parse_element("3+4q")
    with pytest.raises(ParseError):
        HH.parse_element("2+")


def test_euler_phi_fixtures():
    assert euler_phi(1) == 1
    assert euler_phi(16) == 8
    assert euler_phi(30) == 8
    assert euler_phi(97) == 96
    assert euler_phi(10**12 + 1) == 72 * 136 * 99990000
    assert euler_phi(10**18 + 3) == 10**18 + 2
    with pytest.raises(InvalidParameters):
        euler_phi(0)


@given(st.integers(1, 300))
def test_euler_phi_counts_coprime_residues(n):
    from math import gcd
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
