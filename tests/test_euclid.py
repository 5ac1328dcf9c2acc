"""Euclidean toolkit: gcd/xgcd certificates, lcm, and Chinese-remainder solving."""

import pytest
from hypothesis import given, strategies as st

from ringkit import (
    GAUSSIAN,
    ModRing,
    ZZ,
    are_comaximal,
    crt_idempotents,
    crt_solve,
    euclid_gcd,
    extended_gcd,
    gcd_many,
    lagrange_interpolate,
    lcm,
    poly_ring,
)
from ringkit.errors import (
    ContextNotEuclidean,
    EmptySystem,
    InvalidParameters,
    NotComaximal,
)

P7 = poly_ring(ModRing(7))
F7 = ModRing(7)

ints = st.integers(-200, 200)
gaussians = st.tuples(st.integers(-20, 20), st.integers(-20, 20))
f7_polys = st.lists(st.integers(0, 6), max_size=5)


def test_integer_gcd_fixtures():
    assert euclid_gcd(ZZ.element(252), ZZ.element(198)).val == 18
    assert euclid_gcd(ZZ.element(-12), ZZ.element(18)).val == 6
    assert euclid_gcd(ZZ.element(0), ZZ.element(-7)).val == 7
    assert euclid_gcd(ZZ.element(0), ZZ.element(0)).val == 0


def test_gaussian_gcds_land_in_the_first_quadrant():
    fixtures = [
        ((4, 1), (1, 2), (1, 0)),
        ((0, 5), (3, 4), (2, 1)),
        ((6, 2), (2, 6), (2, 2)),
    ]
    for a, b, g in fixtures:
        got = euclid_gcd(GAUSSIAN.element(a), GAUSSIAN.element(b))
        assert got.val == g
        re, im = got.val
        assert re > 0 and im >= 0


def test_gcd_requires_a_euclidean_context():
    PZ = poly_ring(ZZ)
    with pytest.raises(ContextNotEuclidean):
        euclid_gcd(PZ.element([2]), PZ.element([0, 2]))


def test_extended_gcd_certificate_fixture():
    cert = extended_gcd(ZZ.element(252), ZZ.element(198))
    assert (cert.g.val, cert.x.val, cert.y.val) == (18, 4, -5)
    assert cert.check(ZZ.element(252), ZZ.element(198))
    assert not cert.check(ZZ.element(252), ZZ.element(199))


@given(ints, ints)
def test_bezout_certificates_verify_over_the_integers(a, b):
    x, y = ZZ.element(a), ZZ.element(b)
    cert = extended_gcd(x, y)
    assert cert.check(x, y)
    assert cert.g == euclid_gcd(x, y)


@given(gaussians, gaussians)
def test_bezout_certificates_verify_over_the_gaussian_integers(a, b):
    x, y = GAUSSIAN.element(a), GAUSSIAN.element(b)
    cert = extended_gcd(x, y)
    assert cert.check(x, y)
    assert cert.x * x + cert.y * y == cert.g


@given(f7_polys, f7_polys)
def test_bezout_certificates_verify_over_a_polynomial_field(a, b):
    x, y = P7.element(a), P7.element(b)
    cert = extended_gcd(x, y)
    assert cert.check(x, y)
    if not P7.is_zero(cert.g.val):
        assert cert.g.val[-1] == 1  # monic canonical gcd


def test_lcm_fixture_and_zero_rules():
    assert lcm(ZZ.element(4), ZZ.element(6)).val == 12
    assert lcm(ZZ.element(0), ZZ.element(5)).val == 0
    assert lcm(ZZ.element(5), ZZ.element(0)).val == 0
    with pytest.raises(InvalidParameters):
        lcm(ZZ.element(0), ZZ.element(0))


@given(st.integers(-60, 60).filter(bool), st.integers(-60, 60).filter(bool))
def test_gcd_times_lcm_has_the_product_norm(a, b):
    x, y = ZZ.element(a), ZZ.element(b)
    assert abs(euclid_gcd(x, y).val * lcm(x, y).val) == abs(a * b)


def test_gcd_many_folds_left():
    assert gcd_many(ZZ.element(12), ZZ.element(18), ZZ.element(30)).val == 6
    assert gcd_many(ZZ.element(7)).val == 7


def test_comaximality_predicate_is_pairwise():
    assert are_comaximal([ZZ.element(4), ZZ.element(9), ZZ.element(35)])
    assert not are_comaximal([ZZ.element(4), ZZ.element(9), ZZ.element(6)])


def test_crt_two_congruence_fixture():
    sol, mod = crt_solve([(ZZ.element(3), ZZ.element(4)), (ZZ.element(8), ZZ.element(13))])
    assert (sol.val, mod.val) == (47, 52)
    assert sol.val % 4 == 3 and sol.val % 13 == 8


def test_crt_three_congruence_fixture():
    sys = [(ZZ.element(1), ZZ.element(5)), (ZZ.element(2), ZZ.element(6)), (ZZ.element(3), ZZ.element(7))]
    sol, mod = crt_solve(sys)
    assert (sol.val, mod.val) == (206, 210)


def test_crt_idempotents_are_orthogonal_and_complete():
    e = crt_idempotents([ZZ.element(4), ZZ.element(13)])
    assert [x.val for x in e] == [13, 40]
    m = 52
    assert (e[0].val + e[1].val) % m == 1
    assert (e[0].val * e[1].val) % m == 0
    assert (e[0].val * e[0].val) % m == e[0].val % m
    assert e[0].val % 4 == 1 and e[0].val % 13 == 0
    assert e[1].val % 4 == 0 and e[1].val % 13 == 1


def test_crt_failure_reports_the_offending_pair():
    sys = [(ZZ.element(1), ZZ.element(4)), (ZZ.element(2), ZZ.element(6))]
    with pytest.raises(NotComaximal) as exc:
        crt_solve(sys)
    err = exc.value
    assert (err.i, err.j) == (0, 1)
    assert err.gcd.val == 2


def test_crt_guards():
    with pytest.raises(EmptySystem):
        crt_solve([])
    with pytest.raises(InvalidParameters):
        crt_solve([(ZZ.element(0), ZZ.element(1))])
    with pytest.raises(InvalidParameters):
        crt_solve([(ZZ.element(0), ZZ.element(0))])
    with pytest.raises(InvalidParameters):
        crt_idempotents([ZZ.element(4), ZZ.element(-1)])


def test_polynomial_crt_with_linear_moduli_is_interpolation():
    pts = [(2, 5), (3, 1), (5, 6)]
    congruences = [(P7.element([v]), P7.element([7 - a, 1])) for a, v in pts]
    sol, mod = crt_solve(congruences)
    interp = lagrange_interpolate(F7, [(F7.element(a), F7.element(v)) for a, v in pts])
    assert sol.val == interp.val == (5, 5, 1)
    assert mod.val == (5, 3, 4, 1)


@given(st.lists(st.tuples(st.integers(0, 100), st.sampled_from([3, 5, 7, 11])), min_size=1, max_size=3, unique_by=lambda t: t[1]))
def test_random_integer_systems_solve_and_satisfy(sys):
    congs = [(ZZ.element(r % m), ZZ.element(m)) for r, m in sys]
    sol, mod = crt_solve(congs)
    assert mod.val == _prod(m for _, m in sys)
    for r, m in sys:
        assert sol.val % m == r % m
    assert 0 <= sol.val < mod.val


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


# ------------------------------------------- one Bezout identity per modulus

IDEMPOTENT_SYSTEMS = [
    (ZZ, [4, 9, 25, 7, 11]),
    (ZZ, [-8, 3]),
    (GAUSSIAN, [(1, 1), (3, 0), (2, 1), (2, -1), (0, 7)]),
    (P7, [(0, 1), (1, 1), (1, 0, 1), (3, 0, 0, 1)]),
]


@pytest.mark.parametrize("ctx, moduli", IDEMPOTENT_SYSTEMS)
def test_crt_idempotents_pick_out_one_congruence_each(ctx, moduli):
    ms = [ctx.element(m) for m in moduli]
    _, big = crt_solve([(ctx.element(ctx.zero), m) for m in ms])
    es = crt_idempotents(ms)
    for k, e in enumerate(es):
        assert ctx.divmod_(e.val, big.val)[1] == e.val
        for j, m in enumerate(ms):
            want = ctx.one if j == k else ctx.zero
            assert ctx.divmod_(ctx.sub(e.val, want), m.val)[1] == ctx.zero


@pytest.mark.parametrize("ctx, moduli", IDEMPOTENT_SYSTEMS)
def test_crt_solve_takes_one_bezout_identity_per_modulus(
        ctx, moduli, monkeypatch):
    import ringkit.euclid

    calls = []
    real = ringkit.euclid.xgcd_payload

    def counting(c, a, b):
        calls.append(a)
        return real(c, a, b)

    monkeypatch.setattr(ringkit.euclid, "xgcd_payload", counting)
    crt_solve([(ctx.element(ctx.one), ctx.element(m)) for m in moduli])
    assert len(calls) == len(moduli)


@given(st.lists(st.integers(2, 40), min_size=2, max_size=6))
def test_crt_refusal_names_the_first_pair_that_shares_a_factor(moduli):
    import math

    shared = [(i, j) for i in range(len(moduli))
              for j in range(i + 1, len(moduli))
              if math.gcd(moduli[i], moduli[j]) > 1]
    congs = [(ZZ.element(1), ZZ.element(m)) for m in moduli]
    assert are_comaximal([m for _, m in congs]) == (not shared)
    if not shared:
        assert crt_solve(congs)[1].val == _prod(moduli)
        return
    with pytest.raises(NotComaximal) as exc:
        crt_solve(congs)
    i, j = shared[0]
    assert (exc.value.i, exc.value.j) == (i, j)
    assert exc.value.gcd.val == math.gcd(moduli[i], moduli[j])
