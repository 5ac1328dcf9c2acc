"""Context plumbing: flags, element operators, classification, products."""

import functools

import pytest
from hypothesis import given, strategies as st

from ringkit import (
    ContextMismatch,
    Element,
    ModRing,
    NotPrimeCharacteristic,
    ProductRing,
    QQ,
    ZZ,
    characteristic,
    classify,
    enumerate_elements,
    frobenius,
    idempotents_of,
    int_scale,
    nilpotents_of,
    parse_context,
    ring_pow,
    units_of,
    zero_divisors_of,
)
from ringkit.errors import InfiniteRing, NotInvertible
from ringkit.fracfield import FracField
from ringkit.matrix import MatrixRing
from ringkit.multivar import MultiPolyRing
from ringkit.parsing import split_top
from ringkit.poly import PolyRing
from ringkit.series import SeriesRing


FLAGS = ("is_commutative", "is_domain", "is_gcd_domain", "is_euclidean",
         "is_field")

# The five flags of composed contexts, recorded while every context still
# wrote its flags out by hand; deriving them from one level keeps them.
FLAG_TABLE = [
    ("Z", (1, 1, 1, 1, 0)),
    ("Q", (1, 1, 1, 1, 1)),
    ("H", (0, 0, 0, 0, 0)),
    ("Zn:1", (1, 0, 0, 0, 0)),
    ("Zn:6", (1, 0, 0, 0, 0)),
    ("Fp:2", (1, 1, 1, 1, 1)),
    ("Fp:7", (1, 1, 1, 1, 1)),
    ("Quad:-1", (1, 1, 1, 1, 0)),
    ("Quad:-5", (1, 1, 0, 0, 0)),
    ("Quad:2", (1, 1, 0, 0, 0)),
    ("QuadF:-1", (1, 1, 1, 1, 1)),
    ("QuadF:5", (1, 1, 1, 1, 1)),
    ("Poly(Z)", (1, 1, 0, 0, 0)),
    ("Poly(Q)", (1, 1, 1, 1, 0)),
    ("Poly(Fp:7)", (1, 1, 1, 1, 0)),
    ("Poly(Zn:6)", (1, 0, 0, 0, 0)),
    ("Poly(Quad:-1)", (1, 1, 0, 0, 0)),
    ("Poly(Quad:-5)", (1, 1, 0, 0, 0)),
    ("Poly(H)", (0, 0, 0, 0, 0)),
    ("Poly(Poly(Q))", (1, 1, 0, 0, 0)),
    ("Poly(Frac(Z))", (1, 1, 1, 1, 0)),
    ("Series(Z,1)", (1, 1, 1, 1, 0)),
    ("Series(Z,3)", (1, 0, 0, 0, 0)),
    ("Series(Q,1)", (1, 1, 1, 1, 1)),
    ("Series(Q,2)", (1, 0, 0, 0, 0)),
    ("Series(Fp:5,1)", (1, 1, 1, 1, 1)),
    ("Series(Zn:6,1)", (1, 0, 0, 0, 0)),
    ("Series(Quad:-1,1)", (1, 1, 1, 1, 0)),
    ("Series(H,1)", (0, 0, 0, 0, 0)),
    ("Mat(Z,1)", (1, 1, 1, 1, 0)),
    ("Mat(Z,2)", (0, 0, 0, 0, 0)),
    ("Mat(Q,1)", (1, 1, 1, 1, 1)),
    ("Mat(Fp:3,1)", (1, 1, 1, 1, 1)),
    ("Mat(Fp:3,2)", (0, 0, 0, 0, 0)),
    ("Mat(Quad:2,1)", (1, 1, 0, 0, 0)),
    ("Prod(Z)", (1, 1, 1, 1, 0)),
    ("Prod(Q)", (1, 1, 1, 1, 1)),
    ("Prod(Fp:5)", (1, 1, 1, 1, 1)),
    ("Prod(Zn:6)", (1, 0, 0, 0, 0)),
    ("Prod(Z,Zn:6)", (1, 0, 0, 0, 0)),
    ("Prod(Q,Fp:3)", (1, 0, 0, 0, 0)),
    ("Prod(H)", (0, 0, 0, 0, 0)),
    ("Frac(Z)", (1, 1, 1, 1, 1)),
    ("Frac(Poly(Q))", (1, 1, 1, 1, 1)),
    ("Frac(Quad:-5)", (1, 1, 1, 1, 1)),
    ("Frac(MPoly(Z))", (1, 1, 1, 1, 1)),
    ("Quot(Z,7)", (1, 1, 1, 1, 1)),
    ("Quot(Z,12)", (1, 0, 0, 0, 0)),
    ("Quot(Fp:2,[1,1,1])", (1, 1, 1, 1, 1)),
    ("Quot(Fp:2,[1,0,1])", (1, 0, 0, 0, 0)),
    ("Quot(Quad:-1,3)", (1, 1, 1, 1, 1)),
    ("Quot(Quad:-1,5)", (1, 0, 0, 0, 0)),
    ("Quot(Quad:-1,2+i)", (1, 1, 1, 1, 1)),
    ("Quot(Q,[1,0,1])", (1, 1, 1, 1, 1)),
    ("Quot(Q,[-1,0,1])", (1, 0, 0, 0, 0)),
    ("MPoly(Z)", (1, 1, 0, 0, 0)),
    ("MPoly(Q)", (1, 1, 0, 0, 0)),
    ("MPoly(Zn:6)", (1, 0, 0, 0, 0)),
    ("MPoly(Fp:5)", (1, 1, 0, 0, 0)),
    ("MPoly(Quot(Z,6))", (1, 0, 0, 0, 0)),
    ("Series(Quot(Z,7),1)", (1, 1, 1, 1, 1)),
    ("Series(Quot(Z,6),1)", (1, 0, 0, 0, 0)),
    ("Mat(Quot(Z,7),1)", (1, 1, 1, 1, 1)),
    ("Poly(Quot(Z,7))", (1, 1, 1, 1, 0)),
    ("Poly(Quot(Z,6))", (1, 0, 0, 0, 0)),
    ("Poly(Series(Q,1))", (1, 1, 1, 1, 0)),
    ("Series(Poly(Q),1)", (1, 1, 1, 1, 0)),
    ("Frac(Quot(Z,7))", (1, 1, 1, 1, 1)),
    ("Prod(Quot(Fp:2,[1,1,1]))", (1, 1, 1, 1, 1)),
]


def _build(text):
    """parse_context, plus MPoly(ctx) and one-component Prod(ctx), which
    the context literal grammar does not write."""
    head, _, rest = text.partition("(")
    if not rest or head == "Quot":
        return parse_context(text)
    args = split_top(rest[:-1], ",")
    if head == "MPoly":
        return MultiPolyRing(_build(args[0]))
    if head == "Prod":
        return ProductRing([_build(a) for a in args])
    if head in ("Series", "Mat"):
        kind = SeriesRing if head == "Series" else MatrixRing
        return kind(_build(args[0]), int(args[1]))
    return (PolyRing if head == "Poly" else FracField)(_build(args[0]))


@pytest.mark.parametrize("literal, flags", FLAG_TABLE)
def test_flags_match_the_frozen_table(literal, flags):
    ctx = _build(literal)
    assert tuple(int(getattr(ctx, f)) for f in FLAGS) == flags


def test_flag_chain_is_monotone():
    for literal, _ in FLAG_TABLE:
        ctx = _build(literal)
        assert not ctx.is_field or ctx.is_euclidean
        assert not ctx.is_euclidean or ctx.is_gcd_domain
        assert not ctx.is_gcd_domain or ctx.is_domain
        assert not ctx.is_domain or ctx.is_commutative


@pytest.mark.parametrize("wrap", [
    PolyRing, lambda b: SeriesRing(b, 3), lambda b: MatrixRing(b, 2),
    lambda b: SeriesRing(b, 1), lambda b: MatrixRing(b, 1)])
@pytest.mark.parametrize("literal", ["Quot(Z,91)", "Quot(Fp:2,[1,1,1])"])
def test_building_over_a_quotient_leaves_its_primality_undecided(
        wrap, literal, monkeypatch):
    quot = parse_context(literal)
    cls = type(quot.base)
    calls = []
    real = cls.is_prime_element

    def is_prime_element(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(cls, "is_prime_element", is_prime_element)
    wrap(quot).name()
    assert calls == []
    assert quot.is_field == (literal != "Quot(Z,91)")
    assert len(calls) == 1


def test_context_identity_and_naming():
    assert ModRing(7) == ModRing(7)
    assert ModRing(7) != ModRing(11)
    assert hash(ModRing(12)) == hash(ModRing(12))
    assert ModRing(7).name() == "Fp:7"
    assert ModRing(12).name() == "Zn:12"
    assert ZZ.name() == "Z" and QQ.name() == "Q"


def test_element_operator_surface():
    e = ModRing(10).element
    assert e(7) + e(8) == e(5)
    assert e(7) - 9 == e(8)
    assert 3 - e(7) == e(6)
    assert e(7) * e(3) == e(1)
    assert -e(3) == e(7)
    assert e(3) ** 4 == e(1)
    assert bool(e(1)) and not bool(e(0))
    assert e(7) != e(8)
    assert len({e(2), e(2), e(3)}) == 2


def test_mixed_context_arithmetic_is_refused():
    with pytest.raises(ContextMismatch):
        ModRing(5).element(1) + ModRing(7).element(1)
    with pytest.raises(ContextMismatch):
        ZZ.element(1) * QQ.element(1)


def test_int_coercion_goes_through_from_int():
    z7 = ModRing(7)
    assert z7.element(3) + 11 == z7.element(0)
    assert 2 * z7.element(5) == z7.element(3)


def test_inverse_and_unit_predicates():
    z9 = ModRing(9)
    assert z9.element(2).inverse() == z9.element(5)
    assert z9.is_unit(z9.element(4).val)
    assert not z9.is_unit(z9.element(6).val)
    with pytest.raises(NotInvertible):
        z9.element(3).inverse()


@given(st.integers(-50, 50), st.integers(0, 6))
def test_ring_pow_matches_repeated_product(n, k):
    x = ZZ.element(n)
    acc = ZZ.element(1)
    for _ in range(k):
        acc = acc * x
    assert ring_pow(x, k) == acc


def test_ring_pow_negative_needs_a_unit():
    f7 = ModRing(7)
    assert ring_pow(f7.element(3), -1) == f7.element(5)
    assert ring_pow(f7.element(3), -2) == f7.element(4)
    with pytest.raises(NotInvertible):
        ring_pow(ZZ.element(2), -1)


@given(st.integers(-20, 20), st.integers(-10, 10))
def test_int_scale_is_repeated_addition(n, k):
    x = ZZ.element(n)
    assert int_scale(k, x) == ZZ.element(k * n)


def test_characteristic_by_kind():
    assert characteristic(ZZ) == 0
    assert characteristic(QQ) == 0
    assert characteristic(ModRing(12)) == 12
    assert characteristic(ModRing(1)) == 1
    assert characteristic(ProductRing([ModRing(4), ModRing(6)])) == 12
    assert characteristic(ProductRing([ZZ, ModRing(6)])) == 0


def test_frobenius_needs_prime_characteristic():
    f5 = ModRing(5)
    assert frobenius(f5.element(3)) == f5.element(3) ** 5
    with pytest.raises(NotPrimeCharacteristic):
        frobenius(ModRing(6).element(2))
    with pytest.raises(NotPrimeCharacteristic):
        frobenius(ZZ.element(2))


@given(st.integers(0, 6), st.integers(0, 6))
def test_frobenius_is_additive_in_char_7(a, b):
    f7 = ModRing(7)
    x, y = f7.element(a), f7.element(b)
    assert frobenius(x + y) == frobenius(x) + frobenius(y)


def test_enumeration():
    assert [e.val for e in enumerate_elements(ModRing(4))] == [0, 1, 2, 3]
    assert [e.val for e in enumerate_elements(ModRing(1))] == [0]
    with pytest.raises(InfiniteRing):
        enumerate_elements(ZZ)


def test_classification_of_z8():
    z8 = ModRing(8)
    c = classify(z8)
    assert [e.val for e in c.units] == [1, 3, 5, 7]
    assert [e.val for e in c.zero_divisors] == [2, 4, 6]
    assert [e.val for e in c.nilpotents] == [0, 2, 4, 6]
    assert [e.val for e in c.idempotents] == [0, 1]


def test_classification_of_z6():
    z6 = ModRing(6)
    assert [e.val for e in zero_divisors_of(z6)] == [2, 3, 4]
    assert [e.val for e in units_of(z6)] == [1, 5]
    assert [e.val for e in nilpotents_of(z6)] == [0]
    assert [e.val for e in idempotents_of(z6)] == [0, 1, 3, 4]


def test_units_and_zero_divisors_partition_finite_commutative_rings():
    for n in (4, 6, 9, 12, 15):
        ctx = ModRing(n)
        units = {e.val for e in units_of(ctx)}
        zd = {e.val for e in zero_divisors_of(ctx)}
        assert units & zd == set()
        assert units | zd | {0} == set(range(n))


def test_trivial_ring_classification():
    c = classify(ModRing(1))
    assert c.units == () and c.zero_divisors == ()
    assert [e.val for e in c.idempotents] == [0]


def test_product_ring_componentwise():
    P = ProductRing([ModRing(2), ModRing(3)])
    a = P.element((1, 2))
    b = P.element((1, 1))
    assert (a + b).val == (0, 0)
    assert (a * b).val == (1, 2)
    assert P.cardinality() == 6
    assert not P.is_domain
    assert P.parse_element("(1,2)") == a
    assert repr(a) == "(1,2)"


def test_product_ring_units_are_componentwise_units():
    P = ProductRing([ModRing(4), ModRing(3)])
    assert {e.val for e in units_of(P)} == {
        (a, b) for a in (1, 3) for b in (1, 2)}


def test_element_repr_uses_context_show():
    assert repr(ZZ.element(-5)) == "-5"
    assert repr(ModRing(7).element(3)) == "3"


def _units_by_pairs(ctx):
    if ctx.is_zero(ctx.one):
        return []
    elems = [e.val for e in enumerate_elements(ctx)]
    return [a for a in elems
            if any(ctx.eq(ctx.mul(a, b), ctx.one)
                   and ctx.eq(ctx.mul(b, a), ctx.one) for b in elems)]


def _zero_divisors_by_pairs(ctx):
    elems = [e.val for e in enumerate_elements(ctx)]
    nonzero = [a for a in elems if not ctx.is_zero(a)]
    return [a for a in nonzero
            if any(ctx.is_zero(ctx.mul(a, b)) or ctx.is_zero(ctx.mul(b, a))
                   for b in nonzero)]


@pytest.mark.parametrize("literal", [
    "Zn:1", "Zn:12", "Quot(Z,12)", "Quot(Fp:2,[1,0,0,1])",
    "Quot(Quad:-1,3)", "Quot(Quad:-1,2+2i)", "Quot(Quad:-1,3+2i)",
    "Series(Zn:4,3)", "Series(Zn:1,2)", "Mat(Zn:2,2)", "Mat(Zn:3,2)",
    "Prod(Zn:4,Zn:6)", "Prod(Zn:1,Fp:3)", "Frac(Fp:5)",
    # units by one gcd with the modulus (QuotientRing.is_unit)
    "Quot(Fp:2,[1,1,0,0,1,0,1])", "Quot(Fp:2,[1,0,0,0,0,0,1])",
    "Quot(Fp:3,[1,0,0,1,1])", "Quot(Fp:3,[1,0,2,0,1])", "Quot(Z,360)",
])
def test_probes_match_the_pairwise_definitions(literal):
    ctx = parse_context(literal)
    assert [e.val for e in units_of(ctx)] == _units_by_pairs(ctx)
    assert [e.val for e in zero_divisors_of(ctx)] == _zero_divisors_by_pairs(ctx)


@pytest.mark.parametrize("literal, unit_calls", [
    ("Zn:12", 0), ("Zn:1", 0), ("Quot(Fp:3,[1,0,0,1])", 0),
    # Z[i] splits no modulus, so each element asks is_unit once
    ("Quot(Quad:-1,4+2i)", 20)])
def test_classify_enumerates_once_and_asks_is_unit_only_without_a_decomposition(
        literal, unit_calls, monkeypatch):
    ctx = parse_context(literal)
    cls = type(ctx)
    enumerations, unit_tests = [], []
    real_elements, real_is_unit = cls.elements, cls.is_unit

    def elements(self):
        enumerations.append(self)
        return real_elements(self)

    def is_unit(self, a):
        unit_tests.append(a)
        return real_is_unit(self, a)

    monkeypatch.setattr(cls, "elements", elements)
    monkeypatch.setattr(cls, "is_unit", is_unit)
    c = classify(ctx)
    assert len(enumerations) == 1
    if unit_calls:
        assert sorted(unit_tests) == sorted(real_elements(ctx))
    assert len(unit_tests) == unit_calls
    assert c == (units_of(ctx), zero_divisors_of(ctx), nilpotents_of(ctx),
                 idempotents_of(ctx))


class _CountingZn(ModRing):
    def __init__(self, n):
        super().__init__(n)
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)


@pytest.mark.parametrize("n, muls", [(0, 0), (1, 1), (2, 2), (5, 4), (8, 4)])
def test_ring_pow_squares_only_while_bits_remain(n, muls):
    ctx = _CountingZn(1009)
    assert (ctx.element(3) ** n).val == pow(3, n, 1009)
    assert ctx.muls == muls


PUBLIC_NAMES = [
    "BezoutCert", "Classification", "ConstantPolynomial",
    "ConstantTermNotUnit", "ContextMismatch", "ContextNotEuclidean",
    "DegreeDrops", "DegreeOutOfRange",
    "DenominatorIndistinguishableFromZero", "DeterminantNotUnit",
    "DivisionByZero", "DuplicateNode", "Element", "EmptySystem",
    "Factorization", "FactorsMismatch", "FracField", "GAUSSIAN", "HH",
    "InfiniteRing", "IntegerRing", "InvalidParameters",
    "IrreducibilityVerdict", "LaurentSeries", "MatrixRing",
    "MissingVariable", "ModRing", "MultiPolyRing", "NotADomain",
    "NotAField", "NotARoot", "NotComaximal", "NotInvertible",
    "NotPrimeCharacteristic", "NotPrimitive", "OrderVal", "ParseError",
    "PolyRing", "ProductRing", "QQ", "QuadFieldRing", "QuadIntRing",
    "QuaternionAlgebra", "QuotientRing", "RingContext", "RingError",
    "SeriesRing", "ShapeMismatch", "TooLarge", "VariableCollision", "ZZ",
    "ZeroDenominator", "ZeroInput", "ZeroPolynomial", "adjugate",
    "are_comaximal", "characteristic", "classify", "content",
    "cramer_solve", "crt_idempotents", "crt_solve", "degree", "degree_in",
    "dehomogenize", "derivative", "det", "divrem_field", "divrem_scaled",
    "eisenstein_check", "eisenstein_translate_search",
    "enumerate_elements", "euclid_gcd", "euler_phi", "extended_gcd",
    "factor_integer", "factor_poly_fp", "factor_theorem_split", "frac_den",
    "frac_embed", "frac_field", "frac_make", "frac_num", "frobenius",
    "fundamental_unit_search", "gaussian_divmod", "gcd_many",
    "homogeneous_components", "homogenize", "ideal_divisor_lattice",
    "idempotents_of", "imaginary_unit_group", "int_scale",
    "irreducibility_pipeline", "is_homogeneous", "iso_check_crt",
    "lagrange_interpolate", "laurent_from_fraction", "laurent_show", "lcm",
    "leading_coefficient", "low_degree_test", "mat_inverse", "matrix_ring",
    "monic_irreducibles", "mv_eval", "mv_ring", "nilpotents_of",
    "parse_context", "poly_eval", "poly_is_irreducible_fp", "poly_ring",
    "primitive_associate", "primitive_part", "pythagorean_triple",
    "q_cardinality", "q_inverse", "q_is_unit", "q_lift", "q_reduce",
    "quad_conj", "quad_inverse", "quad_irreducible_check", "quad_is_unit",
    "quad_norm", "quat_conj", "quat_from_pair", "quat_inverse",
    "quat_norm_sq", "quotient_ring", "rational_roots",
    "reduction_mod_p_check", "ring_pow", "roots_over_finite",
    "scaling_check", "series_ring", "squarefree_part",
    "sum_of_two_squares", "total_degree", "trace", "transpose", "ts_add",
    "ts_invert", "ts_mul", "ts_ord", "ts_truncate", "units_of",
    "variables_of", "verify_certificate", "zero_divisors_of"
]


def test_all_is_the_public_names_of_the_package():
    import types

    import ringkit

    assert ringkit.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert not isinstance(getattr(ringkit, name), types.ModuleType)
    assert set(PUBLIC_NAMES) <= set(dir(ringkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        ringkit.no_such_name
    namespace = {}
    exec("from ringkit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_NAMES


# -- result records ---------------------------------------------------------

def _records():
    import ringkit as rk

    P5 = rk.poly_ring(ModRing(5))
    PZ = rk.poly_ring(ZZ)
    S = rk.series_ring(QQ, 5)
    return [
        (rk.classify(ModRing(4)),
         "Classification(units=(1, 3), zero_divisors=(2,), "
         "nilpotents=(0, 2), idempotents=(0, 1))", None),
        (rk.extended_gcd(P5.element([1, 2, 3]), P5.element([1, 1])),
         "BezoutCert(g=1, x=3, y=x+3)", None),
        (rk.factor_poly_fp(P5.element([0, 0, 1, 1])),
         "Factorization(ctx=Poly(Fp:5), unit=(1,), "
         "factors=(((0, 1), 2), ((1, 1), 1)))", "(x)^2 * (x+1)"),
        (rk.factor_integer(360),
         "Factorization(ctx=Z, unit=1, factors=((2, 3), (3, 2), (5, 1)))",
         "2^3 * 3^2 * 5"),
        (rk.irreducibility_pipeline(PZ.element([-1, 0, 1])),
         "IrreducibilityVerdict(status='reducible', cert='rational-root', "
         "data=(('root', '-1'),))", "REDUCIBLE cert=rational-root root=-1"),
        (rk.ts_ord(S.element([0])), "OrderVal(kind='at_least', n=5)", ">=5"),
        (rk.laurent_from_fraction(S.element([1, 1]), S.element([0, 0, 1, 1])),
         "x^-2+O(x^1)", "x^-2+O(x^1)"),
    ]


def test_result_records_keep_their_text():
    for rec, rep, text in _records():
        assert repr(rec) == rep
        assert str(rec) == (rep if text is None else text)


def test_result_records_are_immutable():
    for rec, _, _ in _records():
        field = rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            rec.extra = 1


def _modules_after(script):
    """The ringkit submodules, and any of dataclasses and inspect, that a
    fresh interpreter holds once script has run."""
    import json
    import os
    import subprocess
    import sys

    import ringkit

    src = os.path.dirname(os.path.dirname(os.path.abspath(ringkit.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", script + "\nimport json, sys\nprint(json.dumps("
         "sorted(m.removeprefix('ringkit.') for m in sys.modules "
         "if m.startswith('ringkit.') or m in ('dataclasses', 'inspect'))))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


# what a verb loads beside its own payload modules: the front end, the
# context-literal grammar, and the numeric contexts with what they import
CLI_CORE = {"algebra", "cli", "errors", "intutil", "literals",
            "number_rings", "parsing"}
VERB_MODULES = [
    (["phi", "16"], CLI_CORE),
    (["quat-mul", "i", "j"], CLI_CORE),
    (["inv", "Zn:40", "13"], CLI_CORE),
    (["classify", "Zn:6"], CLI_CORE),
    (["factor-int", "-252"], CLI_CORE),
    (["ideal-lattice", "12"], CLI_CORE),
    (["gcd", "Z", "252", "198"], CLI_CORE | {"euclid"}),
    (["crt", "Z", "3:4", "8:13"], CLI_CORE | {"euclid"}),
    (["mat-inv", "Zn:9", "[[2,5],[8,6]]"], CLI_CORE | {"matrix"}),
    # characteristic 2 alone compiles gf2: not a series over F_5, nor
    # factoring over F_3
    (["series-invert", "Fp:5", "[1,2,3;6]"], CLI_CORE | {"poly", "series"}),
    (["factor-poly", "Fp:3", "[1,0,1]"],
     CLI_CORE | {"euclid", "factor", "poly"}),
    (["factor-poly", "Fp:2", "[1,1,1]"],
     CLI_CORE | {"euclid", "factor", "gf2", "poly"}),
    (["irreducible", "Q", "[-9,26,16,6,1]"],
     CLI_CORE | {"euclid", "factor", "poly"}),
]


def test_importing_ringkit_loads_no_submodule():
    assert _modules_after("import ringkit") == set()


@pytest.mark.parametrize("argv, modules", VERB_MODULES,
                         ids=[" ".join(argv) for argv, _ in VERB_MODULES])
def test_each_verb_loads_only_the_modules_it_runs(argv, modules):
    assert _modules_after(
        f"import ringkit.cli\nringkit.cli.main({argv!r})") == modules


def test_no_verb_loads_multivar():
    # the golden transcripts run every verb; multivar is the library's
    # alone, and the CLI never pays for it
    from ringkit.cli import _VERBS
    from test_cli import GOLDEN

    argvs = [argv for argv, _ in GOLDEN]
    assert {argv[0] for argv in argvs} == set(_VERBS)
    loaded = _modules_after(
        f"import ringkit.cli\nfor a in {argvs!r}: ringkit.cli.main(a)")
    assert "multivar" not in loaded
    assert not loaded & {"dataclasses", "inspect"}


def _nilpotent_by_orbit(ctx, a):
    """The earlier test, kept as the oracle: square until 0 or until a
    square repeats (compared by hash_payload)."""
    seen = set()
    while not ctx.is_zero(a):
        h = ctx.hash_payload(a)
        if h in seen:
            return False
        seen.add(h)
        a = ctx.mul(a, a)
    return True


NILPOTENCE_CONTEXTS = [
    "Zn:1", "Zn:8", "Zn:72", "Zn:97", "Quot(Z,36)", "Quot(Fp:2,[0,0,1,1])",
    "Quot(Quad:-1,4)", "Mat(Zn:4,2)", "Mat(Fp:2,3)", "Prod(Zn:8,Zn:9)",
    "Prod(Zn:4,Mat(Fp:2,2))",
    # repeated factors, decided by the distinct-degree radical: (x+1)^2
    # (x^2+1) over F_3, (x^2+x+1)^2 over F_2, (x+1)^3 over F_5
    "Quot(Fp:3,[1,2,2,2,1])", "Quot(Fp:2,[1,0,1,0,1])",
    "Quot(Fp:5,[1,3,3,1])",
]


@functools.lru_cache(maxsize=None)
def _elements_of(literal):
    ctx = parse_context(literal)
    return ctx, list(ctx.elements())


@given(st.sampled_from(NILPOTENCE_CONTEXTS), st.integers(min_value=0))
def test_nilpotence_in_log_log_squarings_matches_the_orbit_walk(literal, i):
    ctx, elements = _elements_of(literal)
    a = elements[i % len(elements)]
    assert ctx.is_nilpotent(a) == _nilpotent_by_orbit(ctx, a)


def test_quotients_of_z_read_nilpotence_from_the_radical(monkeypatch):
    # Quot(Z, n) reads a % rad(n), as Zn:n does: with its product gone,
    # every answer still comes, and matches the orbit walk
    from ringkit.quotient import QuotientRing

    rings = [QuotientRing(ZZ, n) for n in (2, 12, 72, 97, 360, 1024, 28227)]
    monkeypatch.setattr(QuotientRing, "mul", None)
    got = [[R.is_nilpotent(a) for a in range(R.modulus)] for R in rings]
    monkeypatch.undo()
    for R, nilpotent in zip(rings, got):
        assert nilpotent == [_nilpotent_by_orbit(R, a)
                             for a in range(R.modulus)]


def test_quotients_of_z_past_the_factoring_budget_square():
    # Pollard's rho needs about 10^7 steps for these primes, over BUDGET:
    # no radical, and the squarings decide, on elements whose orbit
    # under squaring is short enough for the oracle, and on p
    from ringkit.intutil import is_prime
    from ringkit.quotient import QuotientRing

    p = next(n for n in range(10**14 + 31, 10**15, 2) if is_prime(n))
    q = next(n for n in range(p + 2, 10**15, 2) if is_prime(n))
    n = p * q * q
    assert ZZ.radical(n) is None
    ctx = QuotientRing(ZZ, n)
    for a in (0, 1, n - 1, p * q, 2 * p * q, p * q * q - p * q):
        assert ctx.is_nilpotent(a) == _nilpotent_by_orbit(ctx, a)
    assert ctx.is_nilpotent(p * q) and not ctx.is_nilpotent(p)
    assert not ctx.is_nilpotent(q * q)


def test_int_scale_by_zero_and_by_negatives():
    P = parse_context("Poly(Zn:6)")
    f = P.parse_element("[1,2,5]")
    assert int_scale(0, f).val == ()
    assert int_scale(-4, f) == -(f + f + f + f)
    h = parse_context("H").parse_element("1+2*i-j")
    assert int_scale(-3, h) == -(h + h + h)
    assert int_scale(0, h) == 0


def test_element_floor_division_and_remainder():
    a = ZZ.element(-7)
    assert divmod(a, 2) == (ZZ.element(-4), ZZ.element(1))
    assert (a // ZZ.element(2), a % 2) == (-4, 1)
    P = PolyRing(QQ)
    f, g = P.parse_element("[1,2,3]"), P.parse_element("[1,1]")
    q, r = divmod(f, g)
    assert (q, r) == (P.parse_element("[-1,3]"), P.parse_element("[2]"))
    assert f // g == q and f % g == r
    with pytest.raises(TypeError):
        a // "2"


def test_an_int_divided_by_an_element():
    assert 3 / ModRing(7).element(2) == ModRing(7).element(5)
    assert 1 / QQ.element(3) == QQ.parse_element("1/3")
    with pytest.raises(NotInvertible):
        1 / ZZ.element(2)
