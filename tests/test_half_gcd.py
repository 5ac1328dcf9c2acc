"""Euclid over F_p[x] on int lists and by half-gcd, against the classical loop.

gcd_payload and xgcd_payload over PolyRing(ModRing(p)) take the int-list
path of the kernel's gcd / xgcd (poly.IntKernel); over
PolyRing(LoopMod(p)) the kernel hook is off and they run the generic
remainder loop, which is the oracle: g, x and y must be equal payloads,
not merely a valid Bezout identity.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import ringkit.poly
from loop_bases import LoopMod, LoopQuot, tower_and_loop_bases
from ringkit import ModRing, QQ, ZZ, extended_gcd, poly_ring, series_ring
from ringkit.algebra import ring_pow_payload
from ringkit.euclid import gcd_payload, xgcd_payload
from ringkit.poly import (
    GCD_HGCD_MIN, HGCD_MIN, NEWTON_MIN, IntKernel, PolyRing)
from ringkit.quotient import QuotientRing

PRIMES = [2, 101, 10**12 + 39]


def _random_poly(rng, p, deg):
    if deg < 0:
        return ()
    return tuple([rng.randrange(p) for _ in range(deg)]
                 + [rng.randrange(1, p)])


def _from_quotients(ctx, g, quotients):
    """(a, b) whose remainder sequence is r_k = g, r_(i-1) = q_i r_i +
    r_(i+1): every quotient of degree d > 1 makes the degree drop by d."""
    r, s = g, ()
    for q in reversed(quotients):
        r, s = ctx.add(ctx.mul(q, r), s), r
    return r, s


def _assert_matches_the_loop(p, a, b):
    dense, loop = PolyRing(ModRing(p)), PolyRing(LoopMod(p))
    assert xgcd_payload(dense, a, b) == xgcd_payload(loop, a, b)
    assert gcd_payload(dense, a, b) == gcd_payload(loop, a, b)


@st.composite
def operand_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    rng = draw(st.randoms(use_true_random=False))
    loop = PolyRing(LoopMod(p))
    shape = draw(st.sampled_from(
        ["random", "random", "planted", "a==b", "zero", "constant"]))
    degrees = st.one_of(st.integers(-1, 12),
                        st.integers(HGCD_MIN - 8, HGCD_MIN + 8),
                        st.integers(12, 3 * HGCD_MIN))
    a = _random_poly(rng, p, draw(degrees))
    b = _random_poly(rng, p, draw(degrees))
    if shape == "planted":
        c = _random_poly(rng, p, draw(st.integers(1, HGCD_MIN)))
        a, b = loop.mul(a, c), loop.mul(b, c)
    elif shape == "a==b":
        b = a
    elif shape == "zero":
        a = ()
    elif shape == "constant":
        a = _random_poly(rng, p, 0)
    if draw(st.booleans()):
        a, b = b, a
    return p, a, b


@settings(max_examples=40, deadline=None)
@given(operand_pairs())
def test_dense_gcd_and_xgcd_equal_the_classical_loop(case):
    _assert_matches_the_loop(*case)


@pytest.mark.parametrize("p", PRIMES)
def test_abnormal_remainder_sequences_equal_the_classical_loop(p):
    # quotients of degree up to 7 drop the degree by as much; one of
    # degree NEWTON_MIN sends that step through Newton division
    rng = random.Random(p)
    loop = PolyRing(LoopMod(p))
    for top in (HGCD_MIN // 2, 3 * HGCD_MIN, GCD_HGCD_MIN + 8):
        qs, total = [], 0
        while total < top:
            qs.append(_random_poly(rng, p, rng.choice([1, 2, 3, 7])))
            total += len(qs[-1]) - 1
        qs.insert(rng.randrange(len(qs)), _random_poly(rng, p, NEWTON_MIN))
        g = _random_poly(rng, p, rng.randrange(4))
        a, b = _from_quotients(loop, g, qs)
        _assert_matches_the_loop(p, a, b)
        _assert_matches_the_loop(p, b, a)


GF256 = (1, 1, 0, 1, 1, 0, 0, 0, 1)


def _field_pairs():
    """(kernel ring, loop ring) over F_101, GF(2^8) and Quot(Z, 101)."""
    yield PolyRing(ModRing(101)), PolyRing(LoopMod(101))
    yield tuple(map(PolyRing, tower_and_loop_bases(2, GF256)))
    yield PolyRing(QuotientRing(ZZ, 101)), PolyRing(LoopQuot(ZZ, 101))


@pytest.mark.parametrize("dense, loop", list(_field_pairs()),
                         ids=["F_101", "GF(2^8)", "Quot(Z,101)"])
def test_every_kind_of_remainder_step_equals_the_classical_loop(dense, loop):
    # K.step on zero operands, a shorter dividend (the quotient is 0),
    # quotients of 3 to 5 coefficients, and lengths about HGCD_MIN, where
    # Euclid hands over to the half-gcd; g, x and y equal payloads
    rng = random.Random(len(dense.base.name()))
    pool = list(dense.base.elements())

    def poly(deg):
        return dense.canon([rng.choice(pool) for _ in range(deg)]
                           + [rng.choice(pool[1:])])

    long = _from_quotients(
        loop, poly(1), [poly(rng.randrange(1, 5)) for _ in range(12)])
    cases = [((), ()), (poly(6), ()), ((), poly(6)), (poly(5), poly(20)),
             long, long[::-1]]
    for n in (HGCD_MIN - 1, HGCD_MIN, HGCD_MIN + 1):
        cases += [(poly(n - 1), poly(n - 2)), (poly(n - 1), poly(n - 1))]
    c = poly(4)
    cases.append((dense.mul(c, poly(HGCD_MIN)), dense.mul(c, poly(40))))
    for a, b in cases:
        assert xgcd_payload(dense, a, b) == xgcd_payload(loop, a, b)
        assert gcd_payload(dense, a, b) == gcd_payload(loop, a, b)


@pytest.mark.parametrize("cut", [2, 3, 5, 8])
def test_deep_half_gcd_recursion_equals_the_classical_loop(cut, monkeypatch):
    # a tiny threshold runs the recursion many levels deep on small inputs
    monkeypatch.setattr(ringkit.poly, "HGCD_MIN", cut)
    monkeypatch.setattr(ringkit.poly, "GCD_HGCD_MIN", cut)
    rng = random.Random(cut)
    for _ in range(60):
        p = rng.choice(PRIMES)
        a = _random_poly(rng, p, rng.randrange(-1, 50))
        b = _random_poly(rng, p, rng.randrange(-1, 50))
        if rng.random() < 0.3:
            c = _random_poly(rng, p, rng.randrange(1, 20))
            loop = PolyRing(LoopMod(p))
            a, b = loop.mul(a, c), loop.mul(b, c)
        _assert_matches_the_loop(p, a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_half_gcd_stops_at_half_the_degree(p):
    # (M, c, d) = _hgcd(a, b): c, d are the consecutive remainders with
    # deg d < ceil(deg a / 2) <= deg c, and M (a, b) = (c, d)
    rng = random.Random(p + 1)
    loop = PolyRing(LoopMod(p))
    for n in (HGCD_MIN, 2 * HGCD_MIN + 1, 3 * HGCD_MIN):
        a, b = _random_poly(rng, p, n), _random_poly(rng, p, n - 1)
        M, c, d = ringkit.poly._hgcd(list(a), list(b), IntKernel(p))
        assert len(d) - 1 < len(a) // 2 <= len(c) - 1
        r0, r1 = a, b
        while r0 != tuple(c):
            r0, r1 = r1, loop.divmod_(r0, r1)[1]
        assert r1 == tuple(d)
        s0, t0, s1, t1 = map(tuple, M)
        assert loop.add(loop.mul(s0, a), loop.mul(t0, b)) == r0
        assert loop.add(loop.mul(s1, a), loop.mul(t1, b)) == r1


def test_xgcd_matches_sympy_gcdex():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(5)
    for p in PRIMES:
        R = poly_ring(ModRing(p))
        for da, db in ((5, 3), (HGCD_MIN + 3, HGCD_MIN), (250, 180)):
            c = _random_poly(rng, p, rng.randrange(3))
            a = R.mul(_random_poly(rng, p, da), c)
            b = R.mul(_random_poly(rng, p, db), c)

            def to_sympy(f):
                return sympy.Poly(list(reversed(f)), x, modulus=p)

            def back(poly):
                return R.canon([int(k) for k in reversed(poly.all_coeffs())])

            s, t, h = sympy.gcdex(to_sympy(a), to_sympy(b))
            assert xgcd_payload(R, a, b) == (back(h), back(s), back(t))


def test_degree_1000_xgcd_takes_the_half_gcd(monkeypatch):
    # a fall back to a quadratic loop shows in these counts: the generic
    # loop calls ModRing.mul, the int-list loop alone divides with about
    # deg^2 / 2 dividend coefficients in all
    counts = {"ModRing.mul": 0, "kron_mul": 0, "dividend coefficients": 0}
    real_mul, real_kron, real_divmod = (
        ModRing.mul, ringkit.poly.kron_mul, IntKernel.divmod)

    def mul(self, a, b):
        counts["ModRing.mul"] += 1
        return real_mul(self, a, b)

    def kron_mul(a, b, n, keep=None):
        counts["kron_mul"] += 1
        return real_kron(a, b, n, keep)

    def divmod(self, a, b, memo=True):
        counts["dividend coefficients"] += len(a)
        return real_divmod(self, a, b, memo)

    monkeypatch.setattr(ModRing, "mul", mul)
    monkeypatch.setattr(ringkit.poly, "kron_mul", kron_mul)
    monkeypatch.setattr(IntKernel, "divmod", divmod)
    rng = random.Random(1)
    R = poly_ring(ModRing(101))
    a = R.element(_random_poly(rng, 101, 1000))
    b = R.element(_random_poly(rng, 101, 999))
    cert = extended_gcd(a, b)
    assert cert.g.val == R.one
    assert counts["ModRing.mul"] == 0
    assert 0 < counts["kron_mul"] <= 1000
    assert counts["dividend coefficients"] <= 100_000


def test_only_dense_prime_field_polynomials_take_the_int_lists():
    R = poly_ring(ModRing(101))
    assert R.euclid_kernel() is R.base_kernel is R.base.kernel()
    assert R.euclid_kernel().n == 101
    for ctx in (poly_ring(LoopMod(101)), poly_ring(ModRing(12)),
                poly_ring(ZZ), series_ring(ModRing(7), 1), ModRing(7)):
        assert ctx.euclid_kernel() is None
    # Q[x] has a kernel of its own, which is no F_p kernel
    assert type(poly_ring(QQ).euclid_kernel()) is ringkit.poly.RatKernel
    assert ringkit.poly.prime_kernel(poly_ring(QQ)) is None
    # a one-term series window over F_7 is a field whose payloads are
    # never stripped: its gcds stay on the generic loop
    S = series_ring(ModRing(7), 1)
    assert xgcd_payload(S, (3,), (0,)) == ((1,), (5,), (0,))


def test_reductions_mod_one_divisor_share_one_newton_inverse(monkeypatch):
    calls = []
    real = IntKernel.inverse

    def counting(self, f, prec):
        calls.append(prec)
        return real(self, f, prec)

    monkeypatch.setattr(IntKernel, "inverse", counting)
    rng = random.Random(2)
    dense, loop = PolyRing(ModRing(101)), PolyRing(LoopMod(101))
    f = _random_poly(rng, 101, 119) + (1,)  # monic: the quotient keeps it
    h = _random_poly(rng, 101, 119)
    power = ring_pow_payload(QuotientRing(dense, f), h, 101)
    assert power == ring_pow_payload(QuotientRing(loop, f), h, 101)
    assert calls == [119]
    # a shorter quotient is served by truncation, a longer one recomputes
    for m in (NEWTON_MIN, 119, 200, 150):
        a = _random_poly(rng, 101, 119 + m)
        assert dense.divmod_(a, f) == loop.divmod_(a, f)
    assert calls == [119, 200]
    g = _random_poly(rng, 101, 120)
    a = _random_poly(rng, 101, 239)
    assert dense.divmod_(a, g) == loop.divmod_(a, g)
    assert calls == [119, 200, 120]
