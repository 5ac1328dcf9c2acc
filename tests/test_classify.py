"""classify from the local decomposition against the per-element loop.

classify_by_elements is classify as it was before contexts answered
local_structure: one is_unit, one is_nilpotent and one square per
element.  It is the oracle: every finite commutative ring that answers
local_structure must give the same four tuples, in the same order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringkit.algebra import ProductRing, classify, enumerate_elements
from ringkit.errors import TooLarge
from ringkit.intutil import BUDGET, is_prime
from ringkit.literals import parse_context
from ringkit.matrix import MatrixRing
from ringkit.number_rings import ZZ, ModRing, QuadIntRing
from ringkit.poly import PolyRing
from ringkit.quotient import QuotientRing
from ringkit.series import SeriesRing


def classify_by_elements(ctx):
    units, zero_divisors, nilpotents, idempotents = [], [], [], []
    for e in enumerate_elements(ctx):
        a = e.val
        if ctx.is_unit(a):
            units.append(a)
        elif not ctx.is_zero(a):
            zero_divisors.append(a)
        if ctx.is_nilpotent(a):
            nilpotents.append(a)
        if ctx.eq(ctx.mul(a, a), a):
            idempotents.append(a)
    if ctx.is_zero(ctx.one):
        units = []
    return units, zero_divisors, nilpotents, idempotents


def payloads(c):
    return tuple([e.val for e in part] for part in c)


def _fp_quotient(p, factors):
    """F_p[x] modulo the product of the (coefficient list, exponent)
    pairs."""
    P = PolyRing(ModRing(p))
    m = P.one
    for f, e in factors:
        for _ in range(e):
            m = P.mul(m, P.canon(f))
    return QuotientRing(P, m)


GF4 = QuotientRing(PolyRing(ModRing(2)), (1, 1, 1))

# n up to 2,000, and prime powers among them
zn = st.one_of(st.integers(1, 2000),
               st.sampled_from([1, 2, 97, 1024, 729, 625, 343, 1331, 1000]))
quot_z = st.integers(2, 2000).map(lambda n: QuotientRing(ZZ, n))


@st.composite
def quot_fp(draw):
    """F_p[x]/(m) with m a product of monic factors of degree 1 or 2,
    some repeated (not necessarily irreducible or coprime), at most 4,096
    residues."""
    p = draw(st.sampled_from([2, 3, 5]))
    most = {2: 12, 3: 7, 5: 5}[p]
    factors, degree = [], 0
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 2))
        e = draw(st.integers(1, 3))
        if degree + d * e > most:
            break
        tail = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
        factors.append((tail + [1], e))
        degree += d * e
    if not factors:
        factors = [([0, 1], 1)]
    return _fp_quotient(p, factors)


@st.composite
def series(draw):
    base = draw(st.one_of(st.integers(1, 12).map(ModRing), st.just(GF4)))
    q = base.cardinality()
    prec = draw(st.integers(1, 4))
    while prec > 1 and q ** prec > 2000:
        prec -= 1
    return SeriesRing(base, prec)


local = st.one_of(zn.map(ModRing), quot_z, quot_fp(), series())


@st.composite
def products(draw):
    parts = draw(st.lists(local, min_size=1, max_size=3))
    while len(parts) > 1 and ProductRing(parts).cardinality() > 2000:
        parts.pop()
    return ProductRing(parts)


@settings(max_examples=150, deadline=None)
@given(st.one_of(local, products()))
def test_local_structure_classifies_as_the_element_loop(ctx):
    assert ctx.local_structure() is not None
    assert payloads(classify(ctx)) == classify_by_elements(ctx)


@pytest.mark.parametrize("ctx", [
    ModRing(1), ModRing(1024), QuotientRing(ZZ, 360),
    # one local factor: the idempotents are 0 and 1 alone
    _fp_quotient(2, [([1, 1], 5)]),
    _fp_quotient(3, [([1, 1], 2), ([1, 0, 1], 1)]),
    _fp_quotient(2, [([1, 1], 2), ([1, 1, 0, 0, 1], 1)]),
    SeriesRing(ModRing(4), 3), SeriesRing(ModRing(5), 3),
    SeriesRing(GF4, 2), SeriesRing(ModRing(1), 2),
    ProductRing([ModRing(4), ModRing(6), ModRing(5)]),
    ProductRing([ModRing(1), ModRing(3)]),
    ProductRing([SeriesRing(ModRing(2), 2), _fp_quotient(3, [([0, 1], 2)])]),
], ids=lambda ctx: ctx.name())
def test_pinned_rings_classify_as_the_element_loop(ctx):
    assert payloads(classify(ctx)) == classify_by_elements(ctx)


def test_one_local_factor_has_the_trivial_idempotents():
    ctx = _fp_quotient(2, [([1, 1], 5)])
    assert ctx.local_structure()[2] == {(), (1,)}
    assert [e.val for e in classify(ctx).idempotents] == [(), (1,)]


@pytest.mark.parametrize("ctx", [
    MatrixRing(ModRing(2), 2), QuotientRing(QuadIntRing(-1), (3, 0)),
    QuotientRing(QuadIntRing(-1), (2, 2)),
    SeriesRing(MatrixRing(ModRing(2), 2), 2),
    ProductRing([ModRing(4), MatrixRing(ModRing(2), 2)]),
    SeriesRing(QuotientRing(QuadIntRing(-1), (1, 1)), 3),
    # GF(4)[x] has no prime_factors: only F_p[x] splits its moduli
    QuotientRing(PolyRing(GF4), ((1,), (), (1,))),
], ids=lambda ctx: ctx.name())
def test_rings_without_a_decomposition_take_the_element_loop(ctx):
    assert ctx.local_structure() is None
    assert payloads(classify(ctx)) == classify_by_elements(ctx)


@pytest.mark.parametrize("literal", [
    "Series(Zn:4,2)", "Series(Mat(Fp:2,2),2)", "Prod(Zn:6,Fp:5)",
    "Prod(Zn:4,Mat(Fp:2,2))", "Prod(Series(Zn:9,2),Zn:1)"])
def test_series_and_product_units_are_the_invertible_elements(literal):
    # the constant term decides a series, the components a product
    ctx = parse_context(literal)
    for a in ctx.elements():
        assert ctx.is_unit(a) == (ctx.try_inverse(a) is not None)


def test_an_over_budget_ring_is_refused_before_its_decomposition(
        monkeypatch):
    asked = []
    monkeypatch.setattr(ModRing, "local_structure",
                        lambda self: asked.append(self))
    with pytest.raises(TooLarge):
        classify(ModRing(BUDGET + 1))
    assert asked == []


def test_nilpotence_mod_n_past_the_factoring_budget_squares():
    # Pollard's rho needs about 10^7 steps for these primes, over BUDGET
    p = next(n for n in range(10**14 + 31, 10**15, 2) if is_prime(n))
    q = next(n for n in range(p + 2, 10**15, 2) if is_prime(n))
    ctx = ModRing(p * q * q)
    assert ctx.is_nilpotent(p * q) and ctx.is_nilpotent(0)
    assert not ctx.is_nilpotent(p) and not ctx.is_nilpotent(q * q)
    assert ctx.is_nilpotent(2 * p * q)
