"""Factorization and irreducibility: integers, prime-field polynomials, certificates."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ringkit import (
    GAUSSIAN,
    IrreducibilityVerdict,
    ModRing,
    QQ,
    ZZ,
    parse_context,
    poly_ring,
    quotient_ring,
)
from ringkit.euclid import gcd_payload
from ringkit.poly import derivative, horner
from ringkit.factor import (
    INCONCLUSIVE,
    _fp_divisor,
    _is_root,
    _shift_payload,
    content,
    eisenstein_check,
    eisenstein_translate_search,
    factor_integer,
    factor_poly_fp,
    irreducibility_pipeline,
    low_degree_test,
    monic_irreducibles,
    poly_is_irreducible_fp,
    primitive_associate,
    primitive_part,
    quad_irreducible_check,
    rational_roots,
    reduction_mod_p_check,
    squarefree_part,
    squarefree_part_int,
    verify_certificate,
)
from ringkit.errors import (
    ConstantPolynomial,
    DegreeDrops,
    DegreeOutOfRange,
    InvalidParameters,
    NotAField,
    NotPrimitive,
    RingError,
    TooLarge,
    ZeroInput,
)

PZ = poly_ring(ZZ)
PQ = poly_ring(QQ)
P2 = poly_ring(ModRing(2))
P3 = poly_ring(ModRing(3))


# ------------------------------------------------------------ integers

def test_integer_factorization_fixtures():
    fac = factor_integer(-252)
    assert fac.unit == -1
    assert fac.factors == ((2, 2), (3, 2), (7, 1))
    assert str(fac) == "-1 * 2^2 * 3^2 * 7"
    assert fac.value().val == -252
    assert factor_integer(1).factors == ()
    assert str(factor_integer(1)) == "1"
    assert factor_integer(97).factors == ((97, 1),)


def test_integer_factorization_guards():
    with pytest.raises(ZeroInput):
        factor_integer(0)
    # a prime above PSI_13, which Miller-Rabin cannot prove prime
    with pytest.raises(TooLarge):
        factor_integer(2**89 - 1)
    # two primes near 10^19: about 10^9.5 rho steps, over the work budget
    with pytest.raises(TooLarge):
        factor_integer((10**19 + 51) * (10**19 + 87))
    assert factor_integer(10**12 + 1).factors == (
        (73, 1), (137, 1), (99990001, 1))
    assert factor_integer(10**12).factors == ((2, 12), (5, 12))


@given(st.integers(-10**6, 10**6).filter(bool))
def test_integer_factorization_round_trips(n):
    fac = factor_integer(n)
    assert fac.value().val == n
    for p, e in fac.factors:
        assert e >= 1 and p >= 2


# ------------------------------------------- irreducible tables over F_p

def test_monic_irreducible_tables_over_f2():
    by_deg = {}
    for m in monic_irreducibles(2, 4):
        by_deg.setdefault(len(m.val) - 1, set()).add(m.val)
    assert by_deg[1] == {(0, 1), (1, 1)}
    assert by_deg[2] == {(1, 1, 1)}
    assert by_deg[3] == {(1, 1, 0, 1), (1, 0, 1, 1)}
    assert by_deg[4] == {(1, 1, 0, 0, 1), (1, 0, 0, 1, 1), (1, 1, 1, 1, 1)}


def test_monic_irreducible_tables_over_f3():
    table = monic_irreducibles(3, 3)
    quadratics = {m.val for m in table if len(m.val) == 3}
    assert quadratics == {(1, 0, 1), (2, 1, 1), (2, 2, 1)}
    assert sum(1 for m in table if len(m.val) == 2) == 3
    assert sum(1 for m in table if len(m.val) == 4) == 8


def test_monic_irreducible_guards():
    with pytest.raises(InvalidParameters):
        monic_irreducibles(4, 2)
    with pytest.raises(InvalidParameters):
        monic_irreducibles(3, 0)
    with pytest.raises(TooLarge):
        monic_irreducibles(1009, 2)


def test_membership_predicate_agrees_with_the_table():
    table = {m.val for m in monic_irreducibles(2, 4)}
    import itertools
    for deg in range(1, 5):
        for tail in itertools.product(range(2), repeat=deg):
            cand = P2.element(list(tail) + [1])
            assert poly_is_irreducible_fp(cand) == (cand.val in table)


@given(st.lists(st.integers(0, 2), min_size=2, max_size=6))
@settings(max_examples=60)
def test_prime_field_factorization_round_trips(coeffs):
    f = P3.element(coeffs)
    if P3.is_zero(f.val):
        return
    fac = factor_poly_fp(f)
    assert fac.value() == f
    for g, _ in fac.factors:
        assert poly_is_irreducible_fp(P3.element(list(g)))
        assert g[-1] == 1  # monic factors


def test_prime_field_factorization_fixture():
    fac = factor_poly_fp(P3.element([2, 0, 2]))
    assert fac.unit == (2,)
    assert fac.factors == (((1, 0, 1), 1),)
    assert str(fac) == "2 * (x^2+1)"
    # the two cubics over F_2, which the trace map splits apart
    fac = factor_poly_fp(P2.element([1, 1, 1, 1, 1, 1, 1]))
    assert fac.factors == (((1, 0, 1, 1), 1), ((1, 1, 0, 1), 1))


# ------------------------------------- prime-field path against trial division

def _divmod_fp(p, f, g):
    """Quotient and remainder of ascending coefficient lists, g monic."""
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + len(g) - 1]
        for i, gc in enumerate(g):
            r[k + i] = (r[k + i] - c * gc) % p
    r = r[:len(g) - 1]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _trial_factor(p, f):
    """(unit, factors) of a nonzero f by dividing with every monic
    candidate in (degree, coefficient tuple) order.  Smaller degrees are
    divided out first, so each candidate that divides is irreducible."""
    inv = pow(f[-1], -1, p)
    work = [c * inv % p for c in f]
    factors = []
    d = 1
    while len(work) - 1 >= 2 * d:
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            e = 0
            while True:
                q, r = _divmod_fp(p, work, g)
                if r:
                    break
                work, e = q, e + 1
            if e:
                factors.append((tuple(g), e))
        d += 1
    if len(work) > 1:
        factors.append((tuple(work), 1))
    return (f[-1],), tuple(factors)


# degree caps keep the oracle's p^(deg/2) candidates small
_FP_DEGREES = {2: 14, 3: 9, 5: 7, 7: 6, 101: 4}


@st.composite
def fp_polys(draw):
    """(p, coefficients of a * b^2) for random a, b over F_p, so that
    repeated factors are common."""
    p = draw(st.sampled_from(sorted(_FP_DEGREES)))
    top = _FP_DEGREES[p]
    db = draw(st.integers(0, top // 2))
    da = draw(st.integers(0, top - 2 * db))
    P = poly_ring(ModRing(p))
    coeffs = st.integers(0, p - 1)
    a, b = (P.element(draw(st.lists(coeffs, min_size=n, max_size=n))
                      + [draw(st.integers(1, p - 1))]) for n in (da, db))
    return p, list((a * b * b).val)


@given(fp_polys())
@settings(max_examples=150, deadline=None)
def test_prime_field_path_matches_trial_division(case):
    p, coeffs = case
    f = poly_ring(ModRing(p)).element(coeffs)
    unit, factors = _trial_factor(p, coeffs)
    fac = factor_poly_fp(f)
    assert (fac.unit, fac.factors) == (unit, factors)
    if len(coeffs) > 1:
        whole = factors == ((tuple(c * pow(coeffs[-1], -1, p) % p
                                   for c in coeffs), 1),)
        assert poly_is_irreducible_fp(f) == whole
        assert _fp_divisor(f) == (None if whole else factors[0][0])


def _assert_sympy_factors(p, coeffs):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    lead, parts = sympy.Poly(coeffs[::-1], x, modulus=p).factor_list()
    want = sorted(((tuple(int(c) % p for c in g.all_coeffs()[::-1]), e)
                   for g, e in parts), key=lambda ge: (len(ge[0]), ge[0]))
    f = poly_ring(ModRing(p)).element(coeffs)
    fac = factor_poly_fp(f)
    assert fac.unit == (int(lead) % p,)
    assert list(fac.factors) == want
    assert fac.value() == f


@given(fp_polys())
@settings(max_examples=60, deadline=None)
def test_prime_field_path_matches_sympy(case):
    _assert_sympy_factors(*case)


# past the trial-division oracle's reach, and long enough that the
# distinct-degree loop divides by Newton through the ring's memo
_LONG_FP_DEGREES = {2: 70, 3: 44, 5: 36, 7: 34, 101: 20}


@st.composite
def long_fp_polys(draw):
    """(p, coefficients of a * b^2) for random a, b over F_p of degree up
    to _LONG_FP_DEGREES[p] in all."""
    p = draw(st.sampled_from(sorted(_LONG_FP_DEGREES)))
    top = _LONG_FP_DEGREES[p]
    P = poly_ring(ModRing(p))
    coeffs = st.integers(0, p - 1)
    db = draw(st.integers(0, top // 4))
    da = draw(st.integers(1, top - 2 * db))
    a, b = (P.element(draw(st.lists(coeffs, min_size=n, max_size=n))
                      + [draw(st.integers(1, p - 1))]) for n in (da, db))
    return p, list((a * b * b).val)


@given(long_fp_polys())
@settings(max_examples=40, deadline=None)
def test_int_list_factorization_matches_sympy_at_length(case):
    # the distinct- and equal-degree loops on int lists, against sympy
    # and against the product of their own factors
    _assert_sympy_factors(*case)


def test_pipeline_reduction_runs_at_every_degree():
    # no stage decides: reduction tries all of the first ten primes
    assert irreducibility_pipeline(
        PZ.element([-9, 13, -20, 4, 17, -18, 1])) is INCONCLUSIVE
    # reducible mod 2, 3, 5, 7, 11, 13 and irreducible mod 17
    f = PZ.element([1, -3, -3, -3, -2, -2, 1, -3, 3, 0, 1])
    v = irreducibility_pipeline(f)
    assert v.serialize() == "IRREDUCIBLE cert=reduction p=17"
    assert verify_certificate(f, v)


def test_prime_field_path_takes_large_primes():
    P = poly_ring(ModRing(1009))
    fac = factor_poly_fp(P.element([5, 0, 0, 0, 1]))
    assert fac.factors == (((419, 0, 1), 1), ((590, 0, 1), 1))
    assert str(fac) == "(x^2+419) * (x^2+590)"
    P101 = poly_ring(ModRing(101))
    x8_plus_3 = P101.element([3] + [0] * 7 + [1])
    assert quotient_ring(P101, x8_plus_3).is_field is True


# --------------------------------------------------- content and primitivity

def test_content_and_primitive_part_fixture():
    f = PZ.element([-12, 0, 6])
    assert content(f) == 6
    assert primitive_part(f).val == (-2, 0, 1)
    assert primitive_associate(f).val == (-2, 0, 1)
    assert content(primitive_part(f)) == 1


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4))
@settings(max_examples=80)
def test_content_is_multiplicative(a, b):
    f, g = PZ.element(a), PZ.element(b)
    if PZ.is_zero(f.val) or PZ.is_zero(g.val):
        return
    assert content(f * g) == content(f) * content(g)


# ------------------------------------------------------------ rational roots

def test_rational_root_fixtures():
    assert rational_roots(PZ.element([0, -2, 3])) == [Fraction(0), Fraction(2, 3)]
    assert rational_roots(PZ.element([1, 0, 1])) == []
    assert rational_roots(PQ.element([Fraction(-1), Fraction(0), Fraction(1)])) == [Fraction(-1), Fraction(1)]


def test_rational_root_search_stays_within_the_budget():
    # 1540 x 288 divisor pairs, two signs, five coefficients each
    a0, an = 2**10 * 3**6 * 5**4 * 7**3, 11**3 * 13**3 * 17**2 * 19**2 * 23
    with pytest.raises(TooLarge, match="4435200"):
        rational_roots(PZ.element([a0, 0, 0, 0, an]))
    assert rational_roots(PZ.element([-2 * 10**30 - 14, 0, 2])) == []
    assert rational_roots(PZ.element([10**30 + 7, 3])) == [
        Fraction(-(10**30 + 7), 3)]


def test_low_degree_verdicts():
    v = low_degree_test(P3.element([1, 0, 1]))
    assert v.is_irreducible
    assert str(v) == "IRREDUCIBLE cert=low-degree-no-root"
    w = low_degree_test(PQ.element([Fraction(-1), Fraction(0), Fraction(1)]))
    assert w.is_reducible
    assert str(w) == "REDUCIBLE cert=rational-root root=-1"
    with pytest.raises(DegreeOutOfRange):
        low_degree_test(PQ.element([Fraction(1), 0, 0, 0, Fraction(1)]))
    with pytest.raises(NotAField):
        low_degree_test(poly_ring(ModRing(12)).element([1, 0, 1]))


def test_low_degree_test_refuses_a_content_above_one():
    # 2x^2 + 2 = 2 (x^2 + 1) is reducible in Z[x], though not in Q[x]
    f = PZ.element([2, 0, 2])
    with pytest.raises(NotPrimitive):
        low_degree_test(f)
    assert str(irreducibility_pipeline(f)) == \
        "REDUCIBLE cert=trial-divisor divisor=2"
    assert str(low_degree_test(PQ.element([2, 0, 2]))) == \
        "IRREDUCIBLE cert=low-degree-no-root"


@given(st.sampled_from([ZZ, QQ, ModRing(2), ModRing(3), ModRing(7)]),
       st.lists(st.integers(-6, 6), min_size=2, max_size=3),
       st.integers(1, 6))
@settings(max_examples=150)
def test_every_low_degree_verdict_replays(base, tail, lead):
    f = poly_ring(base).element(tail + [lead])
    assume(len(f.val) in (3, 4))
    try:
        verdict = low_degree_test(f)
    except NotPrimitive:
        assert base == ZZ and content(f) > 1
        return
    assert verify_certificate(f, verdict)


# ------------------------------------------------------------ eisenstein

def test_eisenstein_fixtures():
    v = eisenstein_check(PZ.element([-2, 0, 1]), 2)
    assert v.is_irreducible
    assert str(v) == "IRREDUCIBLE cert=eisenstein p=2 shift=0"
    for p in (2, 3, 5, 7):
        assert eisenstein_check(PZ.element([1, 1, 0, 0, 1]), p) is INCONCLUSIVE


def test_eisenstein_guards():
    with pytest.raises(NotPrimitive):
        eisenstein_check(PZ.element([2, 4, 2]), 2)
    with pytest.raises(ConstantPolynomial):
        eisenstein_check(PZ.element([5]), 2)
    with pytest.raises(InvalidParameters):
        eisenstein_check(PZ.element([-2, 0, 1]), 4)


def test_translate_search_keeps_an_already_witnessed_shift_at_zero():
    v = eisenstein_translate_search(PZ.element([-2, 0, 1]))
    assert str(v) == "IRREDUCIBLE cert=eisenstein p=2 shift=0"


def test_translate_search_skips_a_shift_to_a_root():
    # x^2 - 1 shifted by 1 or -1 has constant term 0
    assert eisenstein_translate_search(PZ.element([-1, 0, 1])) is INCONCLUSIVE


def test_the_shift_search_is_priced_after_shift_zero():
    # 2 * 10^9 nonzero shifts of a quartic, at 5 * 4 / 2 steps each
    f = PZ.element([1, 0, -10, 0, 1])
    with pytest.raises(TooLarge, match="Taylor-shift steps: 20000000000 "):
        eisenstein_translate_search(f, shift_bound=10**9)
    assert eisenstein_translate_search(f, shift_bound=1000) is INCONCLUSIVE
    # shift 0 costs no Taylor shift, so it is tried at any bound
    v = eisenstein_translate_search(PZ.element([2, 0, 1]), shift_bound=10**9)
    assert v.serialize() == "IRREDUCIBLE cert=eisenstein p=2 shift=0"


def test_a_high_degree_keeps_its_eisenstein_verdict_at_shift_zero():
    # x^220 + 2: reduction mod the first ten primes cannot prove it, and
    # the 20 nonzero shifts of the default bound cost 486200 steps
    for P in (PZ, PQ):
        f = P.element([2] + [0] * 219 + [1])
        v = irreducibility_pipeline(f)
        assert v.serialize() == "IRREDUCIBLE cert=eisenstein p=2 shift=0"
        assert verify_certificate(f, v)


def test_translate_search_finds_a_shift():
    v = eisenstein_translate_search(PZ.element([-9, 26, 16, 6, 1]))
    assert str(v) == "IRREDUCIBLE cert=eisenstein p=5 shift=1"
    assert verify_certificate(PZ.element([-9, 26, 16, 6, 1]), v)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12)
       .filter(lambda c: c[-1]), st.integers(-12, 12))
@settings(max_examples=150)
def test_integer_taylor_shift_matches_the_horner_shift(coeffs, a):
    # the substitution x -> x + a as it was, by Horner over Z[x]
    want = horner(PZ, [PZ.lift(c) for c in coeffs], PZ.canon([a, 1]))
    assert tuple(_shift_payload(coeffs, a)) == want


@given(st.lists(st.integers(-20, 20), max_size=5), st.integers(-9, 9),
       st.integers(1, 9), st.integers(-30, 30), st.integers(1, 30))
@settings(max_examples=200)
def test_integer_root_test_matches_the_fraction_horner(cofactor, r, q, s, t):
    # f = (q x - r) * cofactor has the root r/q planted
    f = PZ.mul(PZ.canon(cofactor + [1]), PZ.canon([-r, q]))
    assert _is_root(f, r, q)
    for cand_s, cand_q in ((s, t), (-s, t), (r, q), (s * q, t * q)):
        assert _is_root(f, cand_s, cand_q) == (
            horner(QQ, f, Fraction(cand_s, cand_q)) == 0)
    assert Fraction(r, q) in rational_roots(PZ.element(f))


# ------------------------------------------------------------ reduction mod p

def test_reduction_mod_p_fixtures():
    assert reduction_mod_p_check(PZ.element([1, 0, 1]), 3).is_irreducible
    assert reduction_mod_p_check(PZ.element([1, 0, 1]), 5) is INCONCLUSIVE
    with pytest.raises(DegreeDrops):
        reduction_mod_p_check(PZ.element([1, 0, 5]), 5)


# ------------------------------------------------------------ squarefree parts

def test_squarefree_parts_take_the_odd_multiplicity_factors():
    assert squarefree_part(180) == 5
    assert squarefree_part_int(180) == 5
    assert squarefree_part_int(-18) == 2  # sign is discarded: the part is positive
    assert squarefree_part(PZ.element([2, -3, 0, 1])).val == (2, 1)
    q = PZ.element([1, -2, 1, -1, 1])
    assert squarefree_part(q).val == q.val
    assert squarefree_part(P3.element([1, 2, 1])).val == (1,)  # even multiplicity drops out
    assert squarefree_part(P3.element([0, 1, 2, 1])).val == (0, 1)
    # over Z the content's own squarefree part stays: 12 = 3 * 2^2
    assert squarefree_part(PZ.element([12])).val == (3,)
    assert squarefree_part(PZ.element([6, -4, 2])).val == (6, -4, 2)


def test_squarefree_part_of_zero_is_refused():
    for P in (PZ, PQ, P3):
        with pytest.raises(ZeroInput, match="the zero polynomial has no"):
            squarefree_part(P.element([]))


def _squarefree_part_by_factoring(f):
    """The complete factorization's odd-multiplicity factors, multiplied."""
    out = f.ctx.one
    for g, e in factor_poly_fp(f).factors:
        if e % 2:
            out = f.ctx.mul(out, g)
    return out


@st.composite
def fp_powers(draw):
    """(p, coefficients of u * f1^e1 * ... * fk^ek) with random monic fi,
    so that equal-degree factors of different multiplicities meet."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    P = poly_ring(ModRing(p))
    coeffs = st.integers(0, p - 1)
    acc = P.element([draw(st.integers(1, p - 1))])
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(1, 3))
        f = P.element(draw(st.lists(coeffs, min_size=d, max_size=d)) + [1])
        acc = acc * f ** draw(st.integers(1, 4))
    return p, list(acc.val)


@given(fp_powers())
@settings(max_examples=100, deadline=None)
def test_prime_field_radical_is_the_product_of_the_distinct_factors(case):
    p, coeffs = case
    P = poly_ring(ModRing(p))
    f = P.element(coeffs)
    want = P.one
    for g, _ in factor_poly_fp(f).factors:
        want = P.mul(want, g)
    monic = P.mul(P.canon_unit(f.val), f.val)
    if len(monic) > 1:
        assert P.radical(monic) == want


@given(fp_powers())
@settings(max_examples=150, deadline=None)
def test_prime_field_squarefree_part_matches_the_factorization(case):
    p, coeffs = case
    f = poly_ring(ModRing(p)).element(coeffs)
    assert squarefree_part(f).val == _squarefree_part_by_factoring(f)


@st.composite
def zq_powers(draw):
    """u * a * b^2 * c^3 over Z or Q: u a nonzero integer up to 30 in
    absolute value (a fraction with such a denominator over Q), a, b, c
    of degree 1 or 2 with contents of their own."""
    P = draw(st.sampled_from([PZ, PQ]))
    num = draw(st.integers(1, 30)) * draw(st.sampled_from([1, -1]))
    den = 1 if P is PZ else draw(st.integers(1, 30))
    f = P.element([Fraction(num, den)] if P is PQ else [num])
    for e in (1, 2, 3):
        d = draw(st.integers(1, 2))
        tail = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
        f = f * P.element(tail + [draw(st.integers(1, 3))]) ** e
    return f


def _is_monic_square(q):
    """Is the monic q over Q the square of some s?  s is solved for from
    the top coefficient down, then squared."""
    if (len(q) - 1) % 2:
        return False
    k = (len(q) - 1) // 2
    s = [Fraction(0)] * k + [Fraction(1)]
    for i in range(k - 1, -1, -1):  # q[k + i] = 2 s[i] + the s[j] s[k + i - j]
        s[i] = (q[k + i] - sum(s[j] * s[k + i - j]
                               for j in range(i + 1, k))) / 2
    return PQ.mul(tuple(s), tuple(s)) == tuple(q)


@given(st.one_of(zq_powers(),
                 fp_powers().map(lambda c: poly_ring(ModRing(c[0])).element(c[1]))))
@settings(max_examples=150, deadline=None)
def test_the_squarefree_part_is_squarefree_and_leaves_a_square(f):
    # f = unit * square * part, checked without a squarefree decomposition:
    # gcd(part, part') = 1, and the cofactor's factors have even
    # multiplicity over F_p; over Z and Q the monic cofactor has a square
    # root in Q[x], and over Z its content is a square too
    part = squarefree_part(f)
    P = PQ if f.ctx == PZ else f.ctx
    g, cof = P.canon(part.val), P.canon(f.val)
    assert len(gcd_payload(P, g, derivative(P.element(g)).val)) == 1
    cof, rest = P.divmod_(cof, g)
    assert not rest
    if P is PQ:
        assert _is_monic_square(P.mul(P.canon_unit(cof), cof))
        if f.ctx == PZ:
            assert all(c.denominator == 1 for c in cof)
            c = math.gcd(*map(int, cof))
            assert math.isqrt(c) ** 2 == c
    else:
        assert all(e % 2 == 0 for _, e in factor_poly_fp(P.element(cof)).factors)


@given(zq_powers())
@settings(max_examples=100, deadline=None)
def test_squarefree_part_and_radical_match_sympy(f):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    over_z = f.ctx == PZ
    domain = "ZZ" if over_z else "QQ"
    lead, parts = sympy.Poly(f.val[::-1], x, domain=domain).sqf_list()

    def ours(g):
        return f.ctx.canon([f.ctx.base.parse(str(c))
                            for c in g.all_coeffs()[::-1]])

    want = f.ctx.one
    for g, k in parts:
        if k % 2:
            want = f.ctx.mul(want, ours(g))
    if over_z:
        want = f.ctx.mul((squarefree_part_int(int(lead)),), want)
    assert squarefree_part(f).val in (want, f.ctx.neg(want))
    if not over_z:
        rad = PQ.one
        for g, _ in parts:
            rad = PQ.mul(rad, ours(g))
        monic = PQ.mul(PQ.canon_unit(f.val), f.val)
        assert PQ.radical(monic) == PQ.mul(PQ.canon_unit(rad), rad)


def test_prime_field_squarefree_part_splits_no_group(monkeypatch):
    import ringkit.factor

    def refuse(ctx, g, d):
        raise AssertionError("Cantor-Zassenhaus split")

    monkeypatch.setattr(ringkit.factor, "_equal_degree_split", refuse)
    f = P3.element([1, 1]) ** 3 * P3.element([2, 1]) ** 2 * P3.element([1, 0, 1])
    assert squarefree_part(f).val == P3.mul((1, 1), (1, 0, 1))
    with pytest.raises(ZeroInput):
        squarefree_part(P3.element([]))


# ------------------------------------------------------- quadratic integers

def test_quadratic_integer_irreducibility_certificates():
    v = quad_irreducible_check(GAUSSIAN.element((2, 3)))
    assert str(v) == "IRREDUCIBLE cert=prime-norm n=13"
    w = quad_irreducible_check(GAUSSIAN.element((2, 0)))
    assert str(w) == "REDUCIBLE cert=trial-divisor divisor=1+i"
    u = quad_irreducible_check(GAUSSIAN.element((1, 1)))
    assert str(u) == "IRREDUCIBLE cert=prime-norm n=2"


# ------------------------------------------------------------ the pipeline

def test_pipeline_splits_off_the_content_of_an_integer_polynomial():
    # 2x^4 + 6 = 2 (x^4 + 3): 2 is no unit of Z[x], though it is of Q[x]
    for coeffs, c in (([6, 0, 0, 0, 2], 2), ([6, -4, 2], 2), ([4, 6], 2),
                      ([-10, 0, -5], 5), ([3, 0, 0, 0, 0, 0, 0, 0, 6], 3)):
        f = PZ.element(coeffs)
        v = irreducibility_pipeline(f)
        assert v.serialize() == f"REDUCIBLE cert=trial-divisor divisor={c}"
        assert verify_certificate(f, v)
        # no irreducibility certificate replays on f
        prim = primitive_associate(f)
        assert verify_certificate(prim, irreducibility_pipeline(prim))
        assert not verify_certificate(f, irreducibility_pipeline(prim))
    # a rational root still decides first: 9x^3 + 3x = 3x (3x^2 + 1)
    v = irreducibility_pipeline(PZ.element([0, 3, 0, 9]))
    assert v.serialize() == "REDUCIBLE cert=rational-root root=0"
    f = PQ.element([Fraction(6), 0, 0, 0, Fraction(2)])
    v = irreducibility_pipeline(f)
    assert v.serialize() == "IRREDUCIBLE cert=eisenstein p=3 shift=0"
    assert verify_certificate(f, v)


def test_pipeline_certifies_a_quartic_by_shifted_eisenstein():
    f = PQ.element([Fraction(-9), Fraction(26), Fraction(16), Fraction(6), Fraction(1)])
    v = irreducibility_pipeline(f)
    assert v.serialize() == "IRREDUCIBLE cert=eisenstein p=5 shift=1"
    assert verify_certificate(f, v)


def test_pipeline_uses_roots_in_low_degree_and_sieving_over_prime_fields():
    assert irreducibility_pipeline(PQ.element([Fraction(2), Fraction(1)])).is_irreducible
    v = irreducibility_pipeline(P3.element([1, 0, 1]))
    assert v.is_irreducible
    assert "exhaustive" in str(v)
    assert verify_certificate(P3.element([1, 0, 1]), v)


# 160030080000 + 7016830618369 x^4: 4435200 Horner steps of root search
COSTLY_ROOTS = PQ.parse_element("[160030080000,0,0,0,7016830618369]")


def test_a_stage_over_the_budget_passes_the_polynomial_on():
    with pytest.raises(TooLarge, match="Horner steps"):
        rational_roots(COSTLY_ROOTS)
    rescued = irreducibility_pipeline(COSTLY_ROOTS)
    assert rescued.serialize() == "IRREDUCIBLE cert=reduction p=29"
    assert verify_certificate(COSTLY_ROOTS, rescued)
    # the shift search is refused, and reduction mod 2 decides
    v = irreducibility_pipeline(PZ.element([1, 1, 0, 0, 1]), shift_bound=10**9)
    assert v.serialize() == "IRREDUCIBLE cert=reduction p=2"
    # the rescued verdict, against an independent test
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = sympy.Poly(7016830618369 * x**4 + 160030080000, x)
    assert f.is_irreducible == rescued.is_irreducible


def test_the_first_refusal_stands_when_no_stage_decides():
    # reducible mod every prime, so only a finished search could decide
    f = PZ.element([1, 0, -10, 0, 1])
    with pytest.raises(TooLarge, match="Taylor-shift steps"):
        irreducibility_pipeline(f, shift_bound=10**9)
    # the root search and the shift search are both refused: the first
    # refusal is the one raised
    g = PQ.element([1, 0, 0, 0, 0, 0, 0, 0, 1]) * COSTLY_ROOTS
    with pytest.raises(TooLarge, match="Horner steps"):
        irreducibility_pipeline(g, shift_bound=10**9)


def test_no_low_degree_verdict_after_a_refused_root_search():
    # 1540 x 288 divisor pairs of an x^2 + a0, and no root among them
    a0, an = 2**10 * 3**6 * 5**4 * 7**3, 11**3 * 13**3 * 17**2 * 19**2 * 23
    f = PZ.element([a0, 0, an])
    with pytest.raises(TooLarge):
        rational_roots(f)
    v = irreducibility_pipeline(f)
    assert v.serialize() == "IRREDUCIBLE cert=reduction p=29"
    assert verify_certificate(f, v)


def test_certificates_fail_against_a_different_polynomial():
    v = eisenstein_check(PZ.element([-2, 0, 1]), 2)
    assert verify_certificate(PZ.element([-2, 0, 1]), v)
    assert not verify_certificate(PZ.element([-3, 0, 1]), v)


# (ctx, element, status, cert, data): each certificate kind on a genuine
# verdict, then with one field changed
REPLAYS = [
    ("Poly(Z)", "[1,1,2]", "irreducible", "reduction", {"p": "5"}, True),
    ("Poly(Z)", "[1,1,2]", "irreducible", "reduction", {"p": "7"}, False),
    ("Poly(Z)", "[1,1,2]", "irreducible", "reduction", {"p": "4"}, False),
    ("Poly(Z)", "[1,1,2]", "irreducible", "reduction", {"p": "2"}, False),
    ("Poly(Z)", "[1,1,2]", "irreducible", "reduction", {"p": "x"}, False),
    ("Poly(Z)", "[-2,0,1]", "irreducible", "eisenstein",
     {"p": "2", "shift": "0"}, True),
    ("Poly(Z)", "[-2,0,1]", "irreducible", "eisenstein",
     {"p": "3", "shift": "0"}, False),
    ("Poly(Z)", "[-2,0,1]", "irreducible", "eisenstein",
     {"p": "2", "shift": "1"}, False),
    ("Poly(Z)", "[-2,0,1]", "irreducible", "eisenstein",
     {"p": "2", "shift": "y"}, False),
    ("Poly(Z)", "[-4,0,1]", "reducible", "rational-root", {"root": "2"}, True),
    ("Poly(Z)", "[-4,0,1]", "reducible", "rational-root", {"root": "3"},
     False),
    ("Poly(Z)", "[-4,0,1]", "reducible", "rational-root", {"root": "x"},
     False),
    ("Poly(Z)", "[-4,0,1]", "reducible", "trial-divisor",
     {"divisor": "x-2"}, True),
    ("Poly(Z)", "[-4,0,1]", "reducible", "trial-divisor",
     {"divisor": "x-3"}, False),
    ("Poly(Fp:5)", "[1,0,0,0,1]", "reducible", "trial-divisor",
     {"divisor": "x^2+2"}, True),
    # 6^2 = 0 in Z/12, so the scaled remainder of x^2 by 6x+6 is 0
    ("Poly(Zn:12)", "[0,0,1]", "reducible", "trial-divisor",
     {"divisor": "6*x+6"}, False),
    ("Poly(Fp:5)", "[1,0,0,0,1]", "reducible", "trial-divisor",
     {"divisor": "x^2+1"}, False),
    ("Poly(Fp:2)", "[1,1,1]", "irreducible", "exhaustive", {}, True),
    ("Poly(Fp:2)", "[1,0,1]", "irreducible", "exhaustive", {}, False),
    ("Poly(Z)", "[1,0,1]", "irreducible", "low-degree-no-root", {}, True),
    ("Poly(Z)", "[-1,0,1]", "irreducible", "low-degree-no-root", {}, False),
    ("Quad:-1", "1+i", "irreducible", "prime-norm", {"n": "2"}, True),
    ("Quad:-1", "1+i", "irreducible", "prime-norm", {"n": "3"}, False),
    ("Quad:-1", "3", "irreducible", "exhaustive", {}, True),
    ("Quad:-1", "3+i", "irreducible", "exhaustive", {}, False),
    # a norm divisor over Quad:-5, where 6 = 2 * 3 = (1+s)(1-s)
    ("Quad:-5", "6", "reducible", "trial-divisor", {"divisor": "2"}, True),
    ("Quad:-5", "6", "reducible", "trial-divisor", {"divisor": "1+s"},
     True),
    ("Quad:-5", "6", "reducible", "trial-divisor", {"divisor": "5"}, False),
    ("Quad:-5", "6", "reducible", "trial-divisor", {"divisor": "1"}, False),
    # over Q a linear polynomial is its own certificate
    ("Poly(Q)", "[1/2,3]", "irreducible", "exhaustive", {}, True),
    ("Poly(Q)", "[1,0,1]", "irreducible", "exhaustive", {}, False),
    # a root over a base other than Z and Q reads in that base
    ("Poly(Fp:7)", "[6,0,1]", "reducible", "rational-root", {"root": "1"},
     True),
    ("Poly(Fp:7)", "[6,0,1]", "reducible", "rational-root", {"root": "2"},
     False),
    # a constant divisor: a non-unit of the base dividing every coefficient
    ("Poly(Z)", "[6,0,0,0,2]", "reducible", "trial-divisor",
     {"divisor": "2"}, True),
    ("Poly(Z)", "[6,0,0,0,2]", "reducible", "trial-divisor",
     {"divisor": "-2"}, True),
    ("Poly(Z)", "[6,0,0,0,2]", "reducible", "trial-divisor",
     {"divisor": "4"}, False),
    ("Poly(Z)", "[6,0,0,0,2]", "reducible", "trial-divisor",
     {"divisor": "3"}, False),
    ("Poly(Z)", "[6,0,0,0,2]", "reducible", "trial-divisor",
     {"divisor": "-1"}, False),
    ("Poly(Z)", "[2]", "reducible", "trial-divisor", {"divisor": "2"}, False),
    ("Poly(Q)", "[6,0,0,0,2]", "reducible", "trial-divisor",
     {"divisor": "2"}, False),
    ("Poly(Zn:12)", "[2,4]", "reducible", "trial-divisor",
     {"divisor": "2"}, False),
    # a certificate that does not apply: a composite p, for which x^2 + 4
    # meets Eisenstein's conditions; a linear f; an irreducible status on
    # a divisor; a norm certificate on a polynomial; unknown kinds
    ("Poly(Z)", "[4,0,1]", "irreducible", "eisenstein",
     {"p": "4", "shift": "0"}, False),
    ("Poly(Q)", "[-1,2]", "reducible", "rational-root", {"root": "1/2"},
     False),
    ("Poly(Z)", "[-4,0,1]", "irreducible", "trial-divisor",
     {"divisor": "x-2"}, False),
    ("Poly(Z)", "[1,1]", "irreducible", "prime-norm", {"n": "2"}, False),
    ("Poly(Z)", "[1,1]", "irreducible", "sieve", {}, False),
    ("Quad:-1", "3", "irreducible", "sieve", {}, False),
    ("Quad:2", "3", "irreducible", "exhaustive", {}, False),
    # contexts that are neither polynomial rings nor Z[sqrt d]
    ("Zn:12", "5", "irreducible", "exhaustive", {}, False),
    ("Zn:12", "5", "reducible", "trial-divisor", {"divisor": "2"}, False),
    ("Zn:12", "5", "reducible", "rational-root", {"root": "1"}, False),
    ("Series(Z,4)", "[-1,0,1]", "reducible", "rational-root",
     {"root": "1"}, False),
    # INCONCLUSIVE claims nothing, so it always holds
    ("Poly(Z)", "[1,0,1]", "inconclusive", None, {}, True),
]


def test_verify_certificate_wants_a_verdict():
    with pytest.raises(InvalidParameters):
        verify_certificate(PZ.element([1, 1]), "IRREDUCIBLE cert=exhaustive")


def test_refusals_of_the_entry_points():
    with pytest.raises(RingError, match="needs an integer"):
        factor_integer(PZ.element([6]))
    with pytest.raises(RingError, match="needs an integer, got 1.5"):
        factor_integer(1.5)
    assert factor_integer(parse_context("Z").parse_element("-12")).factors \
        == ((2, 2), (3, 1))
    with pytest.raises(ZeroInput):
        factor_poly_fp(P3.element([]))
    with pytest.raises(ZeroInput):
        rational_roots(PQ.element([]))
    assert rational_roots(PQ.element([Fraction(3, 5)])) == []
    with pytest.raises(ConstantPolynomial):
        irreducibility_pipeline(P3.element([2]))
    with pytest.raises(ConstantPolynomial):
        poly_is_irreducible_fp(P3.element([2]))
    with pytest.raises(InvalidParameters):
        quad_irreducible_check(parse_context("Quad:2").parse_element("3"))


@pytest.mark.parametrize("ctx, text, status, cert, data, holds", REPLAYS)
def test_every_certificate_replays_true_or_false(ctx, text, status, cert,
                                                 data, holds):
    f = parse_context(ctx).parse_element(text)
    verdict = IrreducibilityVerdict(status, cert, tuple(data.items()))
    assert verify_certificate(f, verdict) is holds
