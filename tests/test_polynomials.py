"""Dense univariate polynomials: division flavors, roots, interpolation."""

import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringkit import (
    GAUSSIAN,
    HH,
    ModRing,
    QQ,
    ZZ,
    degree,
    derivative,
    divrem_field,
    divrem_scaled,
    factor_theorem_split,
    lagrange_interpolate,
    leading_coefficient,
    poly_eval,
    poly_ring,
    ring_pow,
)
from ringkit.algebra import DOMAIN, FIELD
from ringkit.errors import (
    ContextMismatch,
    ContextNotEuclidean,
    DuplicateNode,
    NotAField,
    NotARoot,
    NotInvertible,
    ParseError,
)
from ringkit.poly import (
    EXACT_MIN,
    KRONECKER_MIN,
    NEG_INF,
    NEWTON_MIN,
    IntKernel,
    Kernel,
    LoopKernel,
    PolyRing,
    RatKernel,
    _width,
    kron_mul,
)

from ringkit.euclid import xgcd_payload
from ringkit.number_rings import RationalField
from ringkit.series import SeriesRing
from loop_bases import LoopMod, LoopQ, dense_and_loop_bases

PZ = poly_ring(ZZ)
P7 = poly_ring(ModRing(7))

z_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(PZ.element)
f7_polys = st.lists(st.integers(0, 6), min_size=0, max_size=6).map(P7.element)


def test_payloads_are_stripped_ascending_tuples():
    assert PZ.element([1, 2, 0, 0]).val == (1, 2)
    assert PZ.element([0, 0, 0]).val == ()
    assert PZ.element([]).val == ()


def test_degree_conventions():
    assert degree(PZ.element([5])) == 0
    assert degree(PZ.element([0, 0, 3])) == 2
    assert degree(PZ.element([])) == NEG_INF
    assert NEG_INF < 0 and NEG_INF < -10 ** 9
    assert NEG_INF + 5 == NEG_INF
    assert leading_coefficient(PZ.element([1, 2, 3])).val == 3


def test_poly_flags_follow_the_base():
    assert poly_ring(QQ).is_euclidean
    assert poly_ring(QQ).is_gcd_domain
    assert PZ.is_domain and not PZ.is_euclidean and not PZ.is_gcd_domain
    assert poly_ring(ModRing(6)).is_commutative
    assert not poly_ring(ModRing(6)).is_domain


@given(z_polys, z_polys)
def test_degree_additivity_over_a_domain(f, g):
    if f.val and g.val:
        assert degree(f * g) == degree(f) + degree(g)


def test_degree_can_drop_over_zero_divisors():
    P6 = poly_ring(ModRing(6))
    assert (P6.element([0, 2]) * P6.element([0, 3])).val == ()


def test_divrem_scaled_fixture():
    f = PZ.element([-1, 1, 2, 3])
    g = PZ.element([1, 1, 2])
    m, q, r = divrem_scaled(f, g)
    assert (m, q.val, r.val) == (2, (1, 6), (-5, -3))
    b = leading_coefficient(g)
    assert ring_pow(PZ.element([b.val]), m) * f == q * g + r


@given(z_polys, z_polys.filter(lambda g: g.val))
def test_divrem_scaled_identity(f, g):
    m, q, r = divrem_scaled(f, g)
    b = PZ.element([g.val[-1]])
    assert ring_pow(b, m) * f == q * g + r
    assert degree(r) < degree(g)


def test_divrem_field_division_algorithm():
    f = P7.element([1, 0, 0, 1])
    g = P7.element([2, 1])
    q, r = divrem_field(f, g)
    assert f == q * g + r
    assert degree(r) < degree(g)
    with pytest.raises(ContextNotEuclidean):
        PZ.divmod_((1, 1), (2,))


@given(f7_polys, f7_polys.filter(lambda g: g.val))
def test_divrem_field_is_unique_by_degree_bound(f, g):
    q, r = divrem_field(f, g)
    assert f == q * g + r
    assert degree(r) < degree(g)


def test_poly_eval_is_left_substitution():
    f = P7.element([1, 0, 1])
    assert poly_eval(f, ModRing(7).element(2)).val == 5
    PH = poly_ring(HH)
    i, j = HH.element((0, 1, 0, 0)), HH.element((0, 0, 1, 0))
    g = PH.element([i.val, HH.one])
    assert poly_eval(g, j) == j + i


@given(f7_polys, st.integers(0, 6), st.integers(0, 6))
def test_poly_eval_is_additive_and_multiplicative_over_f7(f, a, b):
    x = ModRing(7).element(a)
    g = P7.element([b, 1])
    assert poly_eval(f + g, x) == poly_eval(f, x) + poly_eval(g, x)
    assert poly_eval(f * g, x) == poly_eval(f, x) * poly_eval(g, x)


def test_factor_theorem_split():
    f = P7.element([6, 0, 1])
    q = factor_theorem_split(f, ModRing(7).element(1))
    assert q * P7.element([6, 1]) == f
    with pytest.raises(NotARoot):
        factor_theorem_split(f, ModRing(7).element(2))


def test_roots_need_not_be_bounded_by_degree_over_nonprime_moduli():
    from ringkit import roots_over_finite
    P8 = poly_ring(ModRing(8))
    roots = roots_over_finite(P8.element([7, 0, 1]))
    assert [r.val for r in roots] == [1, 3, 5, 7]


def test_root_count_is_bounded_over_a_field():
    from ringkit import roots_over_finite
    for c0 in range(7):
        for c1 in range(7):
            f = P7.element([c0, c1, 1])
            assert len(roots_over_finite(f)) <= 2


def test_derivative_rules():
    f = PZ.element([5, 3, 0, 2])
    assert derivative(f).val == (3, 0, 6)
    assert derivative(PZ.element([9])).val == ()


@given(z_polys, z_polys)
def test_derivative_product_rule(f, g):
    assert derivative(f * g) == derivative(f) * g + f * derivative(g)


def test_poly_units_over_a_field_are_nonzero_constants():
    assert P7.element([3]).inverse().val == (5,)
    with pytest.raises(NotInvertible):
        P7.element([1, 1]).inverse()


def test_poly_units_can_have_nilpotent_tails():
    P4 = poly_ring(ModRing(4))
    u = P4.element([1, 2])
    assert u.inverse() == u
    assert (u * u).val == (1,)
    with pytest.raises(NotInvertible):
        P4.element([1, 1]).inverse()


def test_poly_unit_with_a_long_nilpotent_tail():
    # 2x has nilpotency index 600 modulo 2^600
    P = poly_ring(ModRing(2**600))
    u = P.element([1, 2])
    inv = u.inverse()
    assert (u * inv).val == (1,)
    assert inv.val == tuple((-2) ** k % 2**600 for k in range(600))


def test_lagrange_guards():
    f7 = ModRing(7)
    e = f7.element
    with pytest.raises(DuplicateNode):
        lagrange_interpolate(f7, [(e(1), e(1)), (e(1), e(2))])
    with pytest.raises(NotAField):
        lagrange_interpolate(ZZ, [(ZZ.element(0), ZZ.element(1))])


def test_lagrange_over_q():
    pts = [(QQ.element(Fraction(k)), QQ.element(Fraction(k * k)))
           for k in range(3)]
    p = lagrange_interpolate(QQ, pts)
    assert p.val == (Fraction(0), Fraction(0), Fraction(1))


def test_show_and_parse_round_trip_fixtures():
    f = PZ.element([-1, 1, 2, 3])
    assert repr(f) == "3*x^3+2*x^2+x-1"
    assert PZ.parse_element(repr(f)) == f
    assert repr(PZ.element([])) == "0"
    assert repr(PZ.element([0, -1])) == "-x"
    assert repr(PZ.element([2, 0, -1])) == "-x^2+2"
    assert PZ.parse_element("(x+1)*(x-1)").val == (-1, 0, 1)


@given(z_polys)
def test_show_parse_round_trip_over_z(f):
    assert PZ.parse_element(repr(f)) == f


@given(f7_polys)
def test_show_parse_round_trip_over_f7(f):
    assert P7.parse_element(repr(f)) == f


def test_parse_rejects_unknown_symbols():
    with pytest.raises(ParseError):
        PZ.parse_element("3*y+1")


# -- dense kernels over Z and Z/n ------------------------------------------

# With the tested lengths these give Kronecker slots of 1 to 9 bytes and
# 16: 2**31 - 1 moves from 8 to 9 bytes between 4 and 5 coefficients.
DENSE_MODULI = [1, 2, 12, 101, 4099, 65537, 2**20 + 7, 2**24 + 43,
                2**30 + 3, 2**31 - 1, 10**18 + 8]
FIELD_MODULI = [2, 101, 10**12 + 39, 10**18 + 9]


def dense_and_loop(n):
    return tuple(map(PolyRing, dense_and_loop_bases(n)))


@st.composite
def dense_products(draw):
    n = draw(st.sampled_from(DENSE_MODULI + [0]))
    coeff = st.integers(-10**40, 10**40) if n == 0 else st.integers(0, n - 1)
    coeffs = st.lists(st.just(0) | coeff, max_size=2 * KRONECKER_MIN + 20)
    a = draw(coeffs)
    b = None if draw(st.booleans()) else draw(coeffs)
    return n, a, b


@settings(max_examples=300, deadline=None)
@given(dense_products())
def test_dense_products_match_the_coefficient_loops(case):
    n, a, b = case
    dense, loop = dense_and_loop(n)
    a = dense.canon(a)
    b = a if b is None else dense.canon(b)
    want = loop.mul(a, b)
    assert dense.mul(a, b) == want
    if a and b:
        assert dense._strip(kron_mul(a, b, n)) == want


@pytest.mark.parametrize("loop_base, dense_base, top", [
    (LoopMod(101), ModRing(101), 90), (LoopQ(), QQ, 40)], ids=["Fp", "Q"])
def test_loop_bases_reach_no_dense_kernel(loop_base, dense_base, top,
                                          monkeypatch):
    # above NEWTON_MIN, where the dense kernels divide and invert by Newton
    prec = 2 * NEWTON_MIN
    P, S = PolyRing(loop_base), SeriesRing(loop_base, prec)
    dense = PolyRing(dense_base)
    assert type(P.base_kernel) is type(S.base_kernel) is LoopKernel
    calls = []
    for cls, name, real in [(Kernel, "divmod", Kernel.divmod)] + [
            (K, name, real) for K in (IntKernel, RatKernel)
            for name, real in vars(K).items() if inspect.isfunction(real)]:
        def counting(*args, name=name, real=real, **kw):
            calls.append(name)
            return real(*args, **kw)
        monkeypatch.setattr(cls, name, counting)
    rng = random.Random(101)
    a, b, c = (P.canon([rng.randrange(101) for _ in range(n)] + [1])
               for n in (top, 40, 3))
    P.sub(P.add(a, b), P.neg(b))
    q, r = P.divmod_(P.mul(a, b), c)
    xgcd_payload(P, a, b)
    f, g = S._fit(a), S._fit(b)
    S.sub(S.add(S.mul(f, g), f), S.neg(g))
    inv = S.try_inverse(f)
    assert calls == []
    assert (q, r, inv) == (*dense.divmod_(dense.mul(a, b), c),
                           SeriesRing(dense_base, prec).try_inverse(f))
    assert calls


def test_kron_mul_over_z_with_a_zero_operand():
    # Unstripped zero operands (series payloads, Newton corrections) must
    # still leave each slot room for the other operand's coefficients.
    loop = PolyRing(dense_and_loop_bases(0)[1])
    for a in ([200, -128, 127, 1], [-200] * 9, [10**30, -5, 0, 7]):
        for zeros in ([0], [0] * 3, [0] * 12):
            want = [0] * (len(a) + len(zeros) - 1)
            assert kron_mul(a, zeros, 0) == want
            assert kron_mul(zeros, a, 0) == want
        assert kron_mul(a, [0, 1], 0) == [0] + a
        assert loop._strip(kron_mul(a, a, 0)) == loop.mul(a, a)


# (n, shorter length, slot bytes before rounding to 1, 2, 4 or 8):
# all-(n-1) operands fill the widest product slot
SLOT_CASES = [(2, 5, 1), (12, 5, 2), (101, 15, 3), (4099, 5, 4),
              (65537, 5, 5), (2**20 + 7, 5, 6), (2**24 + 43, 5, 7),
              (2**30 + 3, 15, 8), (2**31 - 1, 4, 8), (2**31 - 1, 5, 9)]


def _check_kron_mul(loop, a, b, n):
    want = loop.mul(tuple(a), tuple(b))
    got = kron_mul(a, b, n)
    assert len(got) == len(a) + len(b) - 1
    assert loop._strip(got) == want
    for keep in (0, 1, len(a), len(got), len(got) + 3):
        assert kron_mul(a, b, n, keep) == got[:keep]


@pytest.mark.parametrize("n, k, width", SLOT_CASES)
def test_kron_mul_fills_every_slot_width_over_z_mod_n(n, k, width):
    assert (((n - 1) ** 2 * k).bit_length() + 7) // 8 == width
    loop = PolyRing(dense_and_loop_bases(n)[1])
    a = [n - 1] * k
    _check_kron_mul(loop, a, a, n)
    _check_kron_mul(loop, a, list(a), n)
    _check_kron_mul(loop, a, [n - 1] * (3 * k + 1), n)
    _check_kron_mul(loop, [n - 1] * (2 * k + 3), a, n)
    assert kron_mul(a, [0] * k, n) == [0] * (2 * k - 1)


@pytest.mark.parametrize("width", range(1, 10))
def test_kron_mul_fills_every_slot_width_over_z(width):
    # k M^2 just below 2^(8 width - 1), the bias: the widest product
    # coefficients need the whole slot before it is rounded up
    k = 5
    top = math.isqrt((2 ** (8 * width - 1) - 1) // k)
    assert ((k * top * top).bit_length() + 8) // 8 == width
    loop = PolyRing(dense_and_loop_bases(0)[1])
    plus, minus = [top] * k, [-top] * (2 * k + 1)
    mixed = [top, -top] * k
    for a, b in ((plus, minus), (minus, plus), (plus, plus), (minus, minus),
                 (mixed, plus), (mixed, mixed)):
        _check_kron_mul(loop, a, b, 0)
    assert kron_mul(plus, [0] * k, 0) == [0] * (2 * k - 1)


def _top(width, k, signed):
    """The largest M whose k M^2, with a sign bit over Z, needs exactly
    width bytes: the widest product coefficient when the shorter factor
    has k coefficients of size M (n = M + 1 over Z/n); None if none."""
    bits = 8 * width - signed
    top = math.isqrt((2 ** bits - 1) // k)
    return top if top and (k * top * top).bit_length() > bits - 8 else None


@pytest.mark.parametrize("signed", [False, True], ids=["Z/n", "Z"])
@pytest.mark.parametrize("exact", [False, True], ids=["rounded", "exact"])
@pytest.mark.parametrize("width", range(1, 10))
def test_kron_mul_at_every_slot_width_on_both_sides_of_exact_min(
        width, exact, signed):
    # a long second factor, or a long square, takes the product to
    # EXACT_MIN bytes: slots of exactly 3, 5, 6 and 7 bytes from there
    rng = random.Random(width)
    slots = EXACT_MIN // width + 1 if exact else 2 * KRONECKER_MIN
    for k, other in ((KRONECKER_MIN, slots), (slots // 2 + 1, None)):
        top = _top(width, k, signed)
        if top is None:  # no square of 385 one-byte coefficients
            continue
        n = 0 if signed else top + 1
        loop = PolyRing(dense_and_loop_bases(n)[1])
        ends = (top, -top) if signed else (top,)
        a = [rng.choice(ends) for _ in range(k)]
        b = a if other is None else [
            rng.choice(ends) if rng.random() < 0.7
            else rng.randint(-top if signed else 0, top)
            for _ in range(other)]
        m = len(a) + len(b) - 1
        assert (m * width >= EXACT_MIN) == exact
        rounded = 1 << (width - 1).bit_length() if width <= 8 else width
        assert _width(8 * width, m) == (width if exact else rounded)
        _check_kron_mul(loop, a, b, n)
        _check_kron_mul(loop, b, a, n)
        _check_kron_mul(loop, [top] * k, [top] * len(b), n)


def test_kron_inverse_over_z_with_a_vanishing_correction():
    # 1 - 200x inverts sum 200^i x^i exactly, so the Newton correction
    # is zero from the second step on.
    f = [200**i for i in range(48)]
    assert IntKernel(0).inverse(f, 48) == [1, -200] + [0] * 46
    assert IntKernel(0).inverse([1] + [0] * 20, 21) == [1] + [0] * 20
    assert IntKernel(101).inverse([1] + [0] * 20, 21) == [1] + [0] * 20


def test_dense_products_on_both_sides_of_the_threshold():
    rng = random.Random(7)
    for n in DENSE_MODULI + [0]:
        dense, loop = dense_and_loop(n)
        for la in (1, KRONECKER_MIN - 1, KRONECKER_MIN, 3 * KRONECKER_MIN):
            for lb in (1, KRONECKER_MIN - 1, KRONECKER_MIN, 200):
                top = 10**40 if n == 0 else n - 1
                a = dense.canon([rng.randint(-top if n == 0 else 0, top)
                                 for _ in range(la)])
                b = dense.canon([rng.randint(-top if n == 0 else 0, top)
                                 for _ in range(lb)])
                assert dense.mul(a, b) == loop.mul(a, b)
                assert dense.mul(a, a) == loop.mul(a, a)


def test_dense_products_and_inverses_make_no_base_calls(monkeypatch):
    calls = []
    for cls in (ModRing, type(ZZ)):
        for name in ("add", "mul"):
            def counting(self, a, b, real=getattr(cls, name)):
                calls.append(name)
                return real(self, a, b)
            monkeypatch.setattr(cls, name, counting)
    rng = random.Random(13)
    for base in (ModRing(101), ModRing(12), ZZ):
        R = PolyRing(base)
        for la in range(1, 2 * KRONECKER_MIN + 1):
            a = R.canon([rng.randrange(1, 12) for _ in range(la)])
            for lb in range(1, 201):
                b = R.canon([rng.randrange(1, 12) for _ in range(lb)])
                R.mul(a, b)
                R.mul(b, a)
            R.mul(a, a)
        for prec in range(1, NEWTON_MIN + 2):
            S = SeriesRing(base, prec)
            f = S.canon([1] + [rng.randrange(12) for _ in range(prec - 1)])
            S.mul(f, f)
            assert S.mul(f, S.try_inverse(f)) == S.one
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELD_MODULI), st.integers(1, 300),
       st.integers(1, 80), st.randoms(use_true_random=False))
def test_newton_division_matches_the_coefficient_loop(p, m, lb, rng):
    dense, loop = dense_and_loop(p)
    b = dense.canon([rng.randrange(p) for _ in range(lb - 1)]
                    + [rng.randrange(1, p)])
    a = dense.canon([rng.randrange(p) for _ in range(lb + m - 2)]
                    + [rng.randrange(1, p)])
    assert dense.divmod_(a, b) == loop.divmod_(a, b)


def test_newton_division_runs_from_the_threshold(monkeypatch):
    calls = []
    real = IntKernel.inverse

    def counting(self, f, prec):
        calls.append(prec)
        return real(self, f, prec)

    monkeypatch.setattr(IntKernel, "inverse", counting)
    rng = random.Random(3)
    dense, loop = dense_and_loop(101)
    for m in (1, NEWTON_MIN - 1, NEWTON_MIN, 300):
        for lb in (1, NEWTON_MIN - 1, NEWTON_MIN, 120):
            calls.clear()
            b = dense.canon([rng.randrange(101) for _ in range(lb - 1)] + [5])
            a = dense.canon([rng.randrange(101) for _ in range(lb + m - 2)]
                            + [7])
            assert dense.divmod_(a, b) == loop.divmod_(a, b)
            assert calls == ([m] if min(m, lb) >= NEWTON_MIN else [])


def test_dense_products_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for p in FIELD_MODULI:
        R = poly_ring(ModRing(p))
        for la, lb in ((1, 9), (8, 8), (40, 300), (120, 60)):
            a = R.canon([rng.randrange(p) for _ in range(la - 1)] + [1])
            b = R.canon([rng.randrange(p) for _ in range(lb - 1)] + [3])
            sa = sympy.Poly(list(reversed(a)), x, modulus=p)
            sb = sympy.Poly(list(reversed(b)), x, modulus=p)

            def back(poly):
                return R.canon([int(c) for c in reversed(poly.all_coeffs())])

            assert R.mul(a, b) == back(sa * sb)
            q, r = sympy.div(sb, sa) if lb >= la else sympy.div(sa, sb)
            num, den = (b, a) if lb >= la else (a, b)
            assert R.divmod_(num, den) == (back(q), back(r))


def test_monic_division_makes_no_inversion(monkeypatch):
    # the coefficient loop, which every base without the dense hook runs
    calls = []
    real = ModRing.inverse

    def counting(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(ModRing, "inverse", counting)
    R = PolyRing(dense_and_loop_bases(101)[1])
    q, r = R.divmod_(R.canon([3, 1, 4, 1, 5, 9]), R.canon([2, 7, 1]))
    assert R.add(R.mul(q, (2, 7, 1)), r) == R.canon([3, 1, 4, 1, 5, 9])
    assert calls == []
    R.divmod_(R.canon([3, 1, 4, 1, 5, 9]), R.canon([2, 7, 3]))
    assert len(calls) == 1


def test_positive_degree_over_a_domain_is_no_unit_before_any_inverse(
        monkeypatch):
    # classify over Quot(F_p[x], m) asks this of one gcd per element
    calls = []
    real = ModRing.try_inverse

    def counting(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(ModRing, "try_inverse", counting)
    R = PolyRing(ModRing(7))
    assert R.try_inverse(R.canon([3, 1])) is None
    assert R.try_inverse(R.canon([0, 0, 5])) is None
    assert calls == []
    assert R.try_inverse(R.canon([3])) == (5,)
    assert calls == [3]


def test_dense_division_makes_no_coefficient_call(monkeypatch):
    calls = []
    for name in ("add", "sub", "neg", "mul", "eq", "is_zero",
                 "try_inverse", "inverse"):
        def counting(self, *args, real=getattr(ModRing, name), name=name):
            calls.append(name)
            return real(self, *args)

        monkeypatch.setattr(ModRing, name, counting)
    dense, loop = dense_and_loop(101)
    f = (3, 1, 4, 1, 5, 9)
    # monic, non-monic, and a Newton division
    for a, b in ((f, (2, 7, 1)), (f, (2, 7, 3)), ((5,) * 200, (1,) * 99)):
        calls.clear()
        qr = dense.divmod_(a, b)
        assert calls == []
        assert qr == loop.divmod_(a, b)


def test_short_dividend_makes_no_inversion(monkeypatch):
    calls = []
    real = ModRing.inverse

    def counting(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(ModRing, "inverse", counting)
    R = poly_ring(ModRing(101))
    assert R.divmod_(R.canon([3, 1, 4]), R.canon([2, 7, 1, 5])) == ((), (3, 1, 4))
    assert R.divmod_((), R.canon([2, 7])) == ((), ())
    assert calls == []


def test_nonconstant_polynomials_over_a_domain_skip_the_nilpotence_test(
        monkeypatch):
    calls = []
    real = ModRing.is_nilpotent

    def counting(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(ModRing, "is_nilpotent", counting)
    assert poly_ring(ModRing(101)).try_inverse((1, 1)) is None
    assert calls == []
    assert poly_ring(ModRing(4)).try_inverse((1, 2)) == (1, 2)
    assert calls


@pytest.mark.parametrize("call", [
    lambda p, a: poly_eval(p, a),
    lambda p, a: factor_theorem_split(p, a),
    lambda p, a: lagrange_interpolate(QQ, [(a, 1), (2, 3)]),
], ids=["poly_eval", "factor_theorem_split", "lagrange_interpolate"])
def test_operands_from_another_ring_are_refused(call):
    # x^2 - 1/4 over Z has no root 1/2 in Z; a Q element must not pass
    p = PZ.element([-1, 0, 4])
    with pytest.raises(ContextMismatch):
        call(p, poly_ring(QQ).element([Fraction(1, 2)]))
    with pytest.raises(ContextMismatch):
        call(p, P7.element([3]))


def test_level_of_nested_polynomials_reads_the_base_once(monkeypatch):
    reads = []
    monkeypatch.setattr(RationalField, "level", property(
        lambda self: reads.append(1) or FIELD))
    ctx = QQ
    for _ in range(20):
        ctx = poly_ring(ctx)
    assert ctx.level == DOMAIN and len(reads) == 1
