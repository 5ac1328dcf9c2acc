"""Multivariate polynomials: graded order, degrees, homogeneity."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ringkit import (
    GAUSSIAN,
    ModRing,
    QQ,
    ZZ,
    degree_in,
    dehomogenize,
    homogeneous_components,
    homogenize,
    is_homogeneous,
    mv_eval,
    mv_ring,
    scaling_check,
    total_degree,
    variables_of,
)
from ringkit.errors import (
    ContextMismatch,
    InfiniteRing,
    InvalidParameters,
    MissingVariable,
    ParseError,
    VariableCollision,
    ZeroPolynomial,
)
from ringkit.poly import NEG_INF, PolyRing

R = mv_ring(ZZ)

monomials = st.dictionaries(
    st.sampled_from(["x", "y", "z"]), st.integers(1, 3),
    min_size=0, max_size=3)
mpolys = st.lists(
    st.tuples(monomials, st.integers(-5, 5)), min_size=0, max_size=4,
).map(lambda terms: R.element(
    [(tuple(sorted(m.items())), c) for m, c in terms]))


def test_terms_are_stored_graded_lex_descending():
    f = R.parse_element("{1:y, 3:x^2*y, 2:1, 4:x*y^2}")
    assert [m for m, _ in f.val] == [
        (("x", 2), ("y", 1)), (("x", 1), ("y", 2)), (("y", 1),), ()]


def test_zero_coefficients_are_dropped():
    f = R.element([((("x", 1),), 2), ((("x", 1),), -2)])
    assert f.val == ()


def test_parse_show_round_trip():
    f = R.parse_element("{3:x^2*y, -1:z, 2:1}")
    assert R.parse_element(repr(f)) == f
    assert repr(R.element([])) == "{}"


@given(mpolys)
def test_show_parse_round_trip(f):
    assert R.parse_element(repr(f)) == f


def test_degrees():
    f = R.parse_element("{3:x^2*y, 1:y, 2:1}")
    assert total_degree(f) == 3
    assert degree_in(f, "x") == 2
    assert degree_in(f, "y") == 1
    assert degree_in(f, "z") == 0
    assert total_degree(R.element([])) is NEG_INF
    assert variables_of(f) == ["x", "y"]


@given(mpolys, mpolys)
def test_total_degree_additivity_over_z(f, g):
    if f.val and g.val:
        assert total_degree(f * g) == total_degree(f) + total_degree(g)


def test_evaluation():
    f = R.parse_element("{3:x^2*y, 1:y, 2:1}")
    val = mv_eval(f, {"x": ZZ.element(2), "y": ZZ.element(3)})
    assert val == ZZ.element(41)
    with pytest.raises(MissingVariable):
        mv_eval(f, {"x": ZZ.element(2)})


def test_homogeneous_components_partition_by_degree():
    f = R.parse_element("{3:x^2*y, 1:y, 2:1, 1:x*y}")
    parts = homogeneous_components(f)
    assert sorted(parts) == [0, 1, 2, 3]
    total = R.element([])
    for p in parts.values():
        assert is_homogeneous(p)
        total = total + p
    assert total == f
    assert homogeneous_components(R.element([])) == {}


def test_is_homogeneous():
    assert is_homogeneous(R.parse_element("{1:x^2, 5:x*y, -1:y^2}"))
    assert not is_homogeneous(R.parse_element("{1:x^2, 1:x}"))
    assert is_homogeneous(R.element([]))


@given(mpolys, st.integers(-4, 4))
def test_homogeneous_scaling_identity(f, lam):
    for part in homogeneous_components(f).values():
        assert scaling_check(part, ZZ.element(lam))


def test_homogenize_dehomogenize_round_trip():
    f = R.parse_element("{3:x^2*y, 1:y, 2:1}")
    h = homogenize(f, "w")
    assert is_homogeneous(h)
    assert total_degree(h) == total_degree(f)
    assert dehomogenize(h, "w") == f
    with pytest.raises(VariableCollision):
        homogenize(f, "x")
    with pytest.raises(ZeroPolynomial):
        homogenize(R.element([]), "w")


def test_multivar_over_a_field_supports_fraction_construction():
    from ringkit import frac_field
    F5 = mv_ring(ModRing(5))
    F = frac_field(F5)
    a = F.parse_element("{1:x}/{1:y}")
    b = F.parse_element("{2:x}/{2:y}")
    assert a == b


def test_noncommutative_bases_are_refused():
    from ringkit import HH
    with pytest.raises(InvalidParameters):
        mv_ring(HH)


def test_mixed_coefficient_context():
    RQ = mv_ring(QQ)
    f = RQ.parse_element("{1/2:x, 1/3:1}")
    assert mv_eval(f, {"x": QQ.element(Fraction(6))}) == QQ.element(
        Fraction(10, 3))


def test_bad_monomials_are_rejected():
    with pytest.raises(ParseError):
        R.parse_element("{1:x^}")
    with pytest.raises(ParseError):
        R.parse_element("{1:2x}")


class _CountingMod(ModRing):
    def __init__(self, n):
        super().__init__(n)
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)


def test_powers_in_eval_and_scaling_take_logarithmically_many_products():
    base = _CountingMod(1009)
    ctx = mv_ring(base)
    f = ctx.element([((("x", 1000),), 3)])
    assert mv_eval(f, {"x": 2}).val == 3 * pow(2, 1000, 1009) % 1009
    assert base.muls <= 2 * (1000).bit_length() + 1
    base.muls = 0
    assert scaling_check(f, 5)
    assert base.muls <= 4 * (1000).bit_length() + 4


@pytest.mark.parametrize("call", [
    lambda x: mv_eval(R.element([("x", 2)]), {"x": x}),
    lambda x: scaling_check(R.element([("x^2", 1)]), x),
], ids=["mv_eval", "scaling_check"])
def test_points_from_another_ring_are_refused(call):
    # a Q element's Fraction payload must not enter Z arithmetic
    with pytest.raises(ContextMismatch):
        call(QQ.element(Fraction(1, 2)))


def test_base_symbols_lift_to_constants():
    M = mv_ring(GAUSSIAN)
    assert repr(M.parse_element("i*{1:x}+{2:y}")) == "{i:x,2:y}"
    assert M.symbols() == {"i": M.canon([((), (0, 1))]),
                           "s": M.canon([((), (0, 1))])}


# ---------------------------------------------- units with nilpotent parts

Z4, Z8 = mv_ring(ModRing(4)), mv_ring(ModRing(8))


@pytest.mark.parametrize("ctx, text, inverse", [
    (Z4, "{1:1, 2:x, 2:x*y^2}", "{1:1, 2:x, 2:x*y^2}"),  # its own inverse
    (Z8, "{3:1, 2:y}", "{3:1, 6:y, 4:y^2}"),
    (Z8, "{3:1}", "{3:1}"),
])
def test_a_unit_constant_plus_nilpotents_is_a_unit(ctx, text, inverse):
    f = ctx.parse_element(text)
    assert f.inverse() == ctx.parse_element(inverse)
    assert f * f.inverse() == 1


@pytest.mark.parametrize("text", ["{2:1, 2:x}", "{1:1, 1:x}", "{1:x}",
                                  "{}"])
def test_a_unit_needs_a_unit_constant_and_nilpotents(text):
    assert Z4.try_inverse(Z4.parse(text)) is None


def _units_agree(n, coeffs):
    # f as a univariate PolyRing payload and as an MPoly in x
    base = ModRing(n)
    P, M = PolyRing(base), mv_ring(base)
    f = P.canon(coeffs)
    as_mpoly = lambda g: M.canon(  # noqa: E731
        [(((("x", i),) if i else ()), c) for i, c in enumerate(g)])
    inv = P.try_inverse(f)
    got = M.try_inverse(as_mpoly(f))
    assert got == (None if inv is None else as_mpoly(inv))


@given(st.sampled_from([4, 8, 12]).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.one_of(st.integers(0, n - 1),
                       st.sampled_from([0, n // 2, 6 % n, 2 * (6 % n) % n])),
             min_size=0, max_size=5))))
def test_mpoly_units_agree_with_poly_units(case):
    _units_agree(*case)


def test_mpoly_neg_and_hash():
    f = R.parse_element("{3:x^2*y, -1:z, 2:1}")
    assert (-f).val == tuple((m, -c) for m, c in f.val)
    assert f + (-f) == R.element([])
    g = R.parse_element("{2:1, -1:z, 3:y*x^2}")
    assert g == f and hash(g) == hash(f)
    Q = mv_ring(QQ)
    assert hash(Q.parse_element("{1/2:x}")) == hash(
        Q.element([((("x", 1),), Fraction(2, 4))]))


def test_mpoly_cardinality_and_elements():
    zero_ring = mv_ring(ModRing(1))
    assert zero_ring.cardinality() == 1
    assert list(zero_ring.elements()) == [()]
    for base in (ZZ, ModRing(2)):
        assert mv_ring(base).cardinality() is None
        with pytest.raises(InfiniteRing):
            mv_ring(base).elements()
