"""Fraction fields: canonical reduction where available, raw pairs otherwise."""

import pytest
from hypothesis import given, strategies as st

from ringkit import (
    GAUSSIAN,
    ModRing,
    QQ,
    ZZ,
    frac_den,
    frac_embed,
    frac_field,
    frac_make,
    frac_num,
    mv_ring,
    poly_ring,
)
from ringkit.errors import (
    ContextMismatch,
    NotADomain,
    ZeroDenominator,
)

FZ = frac_field(ZZ)

nonzero = st.integers(-50, 50).filter(lambda n: n != 0)


def test_construction_requires_a_commutative_domain():
    with pytest.raises(NotADomain):
        frac_field(ModRing(6))


def test_zero_denominator_is_refused():
    with pytest.raises(ZeroDenominator):
        frac_make(ZZ.element(1), ZZ.element(0))


def test_canonical_reduction_over_z():
    x = FZ.parse_element("6/-4")
    assert x.val == (-3, 2)
    assert FZ.parse_element("0/7").val == (0, 1)
    assert repr(x) == "-3/2"


def test_field_axioms_on_elements():
    a = FZ.parse_element("2/3")
    b = FZ.parse_element("-1/6")
    assert (a + b).val == (1, 2)
    assert (a * b).val == (-1, 9)
    assert (a / b).val == (-4, 1)
    assert a - a == FZ.parse_element("0/5")


@given(st.integers(-50, 50), nonzero, st.integers(-50, 50), nonzero)
def test_addition_matches_the_cross_multiplication_rule(a, b, c, d):
    x = frac_make(ZZ.element(a), ZZ.element(b))
    y = frac_make(ZZ.element(c), ZZ.element(d))
    s = x + y
    lhs = ZZ.element(a * d + c * b)
    assert frac_num(s) * ZZ.element(b * d) == lhs * frac_den(s)


@given(st.integers(-50, 50), nonzero)
def test_embedding_is_a_homomorphism_section(a, b):
    x = frac_embed(ZZ.element(a))
    y = frac_embed(ZZ.element(b))
    assert x + y == frac_embed(ZZ.element(a + b))
    assert x * y == frac_embed(ZZ.element(a * b))
    assert frac_num(x).val == a and frac_den(x).val == 1


def test_mismatched_contexts_are_refused():
    with pytest.raises(ContextMismatch):
        frac_make(ZZ.element(1), QQ.element(1))


def test_rational_function_field_over_f5():
    F = frac_field(poly_ring(ModRing(5)))
    a = F.parse_element("[1,1]/[2,0,1]")
    assert repr(a) == "(x+1)/(x^2+2)"
    b = F.parse_element("[3,1]/[1,1]")
    s = a + b
    assert frac_num(s).val == (2, 4, 4, 1)
    assert frac_den(s).val == (2, 2, 1, 1)
    assert F.is_field


def test_denominators_are_made_monic_over_a_field_base():
    F = frac_field(poly_ring(ModRing(5)))
    x = F.parse_element("[1]/[0,2]")
    assert frac_den(x).val == (0, 1)
    assert frac_num(x).val == (3,)


def test_gaussian_fractions_reduce():
    F = frac_field(GAUSSIAN)
    x = frac_make(GAUSSIAN.element((2, 2)), GAUSSIAN.element((0, 2)))
    num, den = frac_num(x), frac_den(x)
    assert num * GAUSSIAN.element((0, 2)) == den * GAUSSIAN.element((2, 2))
    assert den.val == (1, 0)


def test_unreduced_fields_compare_by_cross_multiplication():
    F = frac_field(mv_ring(QQ))
    assert not F.reduced
    a = F.parse_element("{1:x}/{1:y}")
    b = F.parse_element("{3:x}/{3:y}")
    assert a == b
    assert a != F.parse_element("{1:y}/{1:x}")
    with pytest.raises(TypeError):
        hash(a)


def test_reduced_fields_hash_consistently():
    a = FZ.parse_element("2/4")
    b = FZ.parse_element("1/2")
    assert a == b and hash(a) == hash(b)


def test_finite_fraction_fields_enumerate_as_the_base():
    F = frac_field(ModRing(7))
    assert F.cardinality() == 7
    elems = list(F.elements())
    assert len(elems) == 7
    assert len(set(elems)) == 7


def _reduced_by_gcd(ctx, num, den):
    """The gcd reduction every reduced Frac ran before its shortcuts."""
    from ringkit.euclid import gcd_payload

    base = ctx.base
    g = gcd_payload(base, num, den)
    if not base.is_zero(num):
        num = base.divmod_(num, g)[0]
        den = base.divmod_(den, g)[0]
    else:
        den = base.one
    u = base.canon_unit(den)
    return (base.mul(u, num), base.mul(u, den))


@given(st.integers(-50, 50), nonzero, st.lists(st.integers(0, 6), max_size=4),
       st.lists(st.integers(0, 6), min_size=1, max_size=4).filter(any))
def test_shortcuts_leave_the_reduced_payloads_as_the_gcd_made_them(
        a, b, f, g):
    P7 = poly_ring(ModRing(7))
    cases = [
        (frac_field(QQ), QQ.canon(a), QQ.canon(b)),
        (frac_field(FZ), (a, 1), (b, 1)),
        (frac_field(frac_field(P7)), (P7.canon(f), P7.one),
         (P7.canon(g), P7.one)),
        (FZ, a, 1),
        (frac_field(P7), P7.canon(f), P7.one),
    ]
    for ctx, num, den in cases:
        assert ctx._make(num, den) == _reduced_by_gcd(ctx, num, den)


def test_field_bases_and_unit_denominators_run_no_gcd(monkeypatch):
    import ringkit.fracfield

    calls = []
    monkeypatch.setattr(ringkit.fracfield, "gcd_payload",
                        lambda *args: calls.append(args))
    nested = frac_field(frac_field(frac_field(ZZ)))
    assert nested._make(nested.base.one, nested.base.one) == (
        nested.base.one, nested.base.one)
    assert frac_field(QQ)._make(QQ.canon(3), QQ.canon(6)) == (
        QQ.canon(1) / 2, QQ.one)
    assert FZ._make(6, 1) == (6, 1)
    assert calls == []
