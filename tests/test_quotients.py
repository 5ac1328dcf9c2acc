"""Quotients by a principal ideal: residue arithmetic, units, and the divisor lattice."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ringkit import (
    GAUSSIAN,
    Element,
    ModRing,
    QQ,
    ZZ,
    enumerate_elements,
    ideal_divisor_lattice,
    iso_check_crt,
    parse_context,
    poly_ring,
    q_cardinality,
    q_inverse,
    q_is_unit,
    q_lift,
    q_reduce,
    quotient_ring,
    units_of,
)
from ringkit.factor import (
    irreducibility_pipeline,
    poly_is_irreducible_fp,
    rational_roots,
)
from ringkit.intutil import is_prime
from ringkit.number_rings import IntegerRing, RationalField
from ringkit.poly import PolyRing
from ringkit.errors import (
    ContextMismatch,
    FactorsMismatch,
    InvalidParameters,
    NotInvertible,
    TooLarge,
)

P2 = poly_ring(ModRing(2))
P3 = poly_ring(ModRing(3))
F4 = quotient_ring(P2, P2.element([1, 1, 1]))
F9 = quotient_ring(P3, P3.element([1, 0, 1]))


def test_integer_quotients_agree_with_modular_contexts():
    Q12 = quotient_ring(ZZ, ZZ.element(12))
    M12 = ModRing(12)
    assert Q12.name() == "Quot(Z,12)"
    for k in range(-13, 27):
        assert Q12.element(k).val == M12.element(k).val
    assert Q12.characteristic() == 12
    assert q_cardinality(Q12) == 12


def test_modulus_must_be_a_nonzero_non_unit():
    for m in (0, 1, -1):
        with pytest.raises(InvalidParameters):
            quotient_ring(ZZ, ZZ.element(m))


def test_four_element_field_multiplication_table():
    assert F4.is_field
    assert q_cardinality(F4) == 4
    assert sorted(F4.show(p) for p in F4.elements()) == ["0", "1", "x", "x+1"]
    x = F4.element([0, 1])
    assert F4.show((x * x).val) == "x+1"
    assert F4.show((x * x * x).val) == "1"
    assert x * x + x + F4.element([1]) == F4.element([])


def test_inverse_of_the_residue_class_of_x_mod_x_squared_plus_one():
    assert q_inverse(F9.element([0, 1])).val == (0, 2)
    assert F9.element([0, 1]) * F9.element([0, 2]) == F9.element([1])


def test_gaussian_quotient_by_one_plus_two_i_is_a_five_element_field():
    G = quotient_ring(GAUSSIAN, GAUSSIAN.element((1, 2)))
    assert q_cardinality(G) == 5
    assert G.is_field
    assert len(set(G.elements())) == 5
    for e in enumerate_elements(G):
        if not G.is_zero(e.val):
            assert q_is_unit(e)


def test_number_field_quotient_is_an_infinite_field():
    PQ = poly_ring(QQ)
    K = quotient_ring(PQ, PQ.element([-2, 0, 1]))
    assert K.is_field and not K.is_finite
    r = K.element([0, 1])
    assert (r * r).val == (Fraction(2),)
    assert q_inverse(r).val == (Fraction(0), Fraction(1, 2))


def test_representatives_are_canonical():
    big = P3.element([2, 2, 1, 1])
    assert q_reduce(F9, big).val == (1, 1)
    for p in F9.elements():
        assert F9.canon(p) == p
        assert len(p) < 2 or p[-1] != 0
    assert q_lift(F9.element([2, 2])).ctx is P3


def test_reducible_modulus_gives_zero_divisors_and_nilpotents():
    N = quotient_ring(P3, P3.element([0, 0, 1]))
    assert not N.is_field and not N.is_domain
    assert N.is_nilpotent((0, 1))
    assert q_cardinality(N) == 9
    with pytest.raises(NotInvertible):
        q_inverse(N.element([0, 1]))


def test_failed_inversion_reports_the_common_divisor():
    Q12 = quotient_ring(ZZ, ZZ.element(12))
    with pytest.raises(NotInvertible) as exc:
        q_inverse(Q12.element(8))
    assert exc.value.gcd.val == 4


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_quotient_arithmetic_is_well_defined_on_representatives(a, b, c, d):
    f = F9.element([a, b])
    g = F9.element([c, d])
    lifted = q_lift(f) * q_lift(g) + q_lift(f + g)
    assert q_reduce(F9, lifted) == f * g + f + g


def test_divisor_lattice_of_twelve():
    lat = ideal_divisor_lattice(12)
    assert [d for d, _, _ in lat] == [1, 2, 3, 4, 6, 12]
    assert [d for d, p, _ in lat if p] == [2, 3]
    assert [d for d, _, m in lat if m] == [2, 3]


def test_divisor_lattice_prime_modulus():
    # the zero ideal (generated by 7) is maximal exactly because Z_7 is a field
    lat = ideal_divisor_lattice(7)
    assert lat == [(1, False, False), (7, True, True)]


def test_crt_isomorphism_checks():
    assert iso_check_crt(30, [2, 3, 5]) is True
    assert iso_check_crt(4, [2, 2]) is False
    assert iso_check_crt(100, [4, 25]) is True


def test_crt_isomorphism_guards():
    with pytest.raises(FactorsMismatch):
        iso_check_crt(30, [2, 3, 7])
    with pytest.raises(FactorsMismatch):
        iso_check_crt(30, [])
    with pytest.raises(InvalidParameters):
        iso_check_crt(0, [1])
    # n residues are checked; 10^7 is over the work budget of 10^6
    with pytest.raises(TooLarge):
        iso_check_crt(10**7, [2**7, 5**7])
    assert iso_check_crt(10**5, [2**5, 5**5]) is True
    assert iso_check_crt(10**5, [10, 10**4]) is False


def test_cardinality_of_polynomial_quotients_is_a_prime_power():
    for p, deg, mod in [(2, 2, [1, 1, 1]), (3, 2, [1, 0, 1]), (5, 3, [2, 1, 0, 1])]:
        P = poly_ring(ModRing(p))
        Q = quotient_ring(P, P.element(mod))
        assert q_cardinality(Q) == p**deg


def test_modulus_primality_is_decided_once_per_context(monkeypatch):
    import ringkit.factor

    calls = []
    real = ringkit.factor.irreducibility_pipeline

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(ringkit.factor, "irreducibility_pipeline", counting)
    gf256 = quotient_ring(P2, P2.element([1, 1, 0, 1, 1, 0, 0, 0, 1]))
    R = poly_ring(gf256)
    a = R.element([[1, 1], [], [], [], [1], [0, 0, 1]])
    b = R.element([[1], [0, 1], [1]])
    for _ in range(100):
        q, r = R.divmod_(a.val, b.val)
    assert R.add(R.mul(q, b.val), r) == a.val
    assert len(calls) == 1


def test_zero_one_and_is_zero_make_no_division(monkeypatch):
    from ringkit.poly import PolyRing

    calls = []
    real = PolyRing.divmod_

    def counting(self, a, b):
        calls.append(a)
        return real(self, a, b)

    Q = quotient_ring(P2, P2.element([1, 1, 0, 1, 1, 0, 0, 0, 1]))
    monkeypatch.setattr(PolyRing, "divmod_", counting)
    assert Q.one == (1,)
    assert len(calls) == 1
    calls.clear()
    for _ in range(10):
        assert Q.is_zero(Q.zero)
        assert not Q.is_zero(Q.one)
    assert calls == []
    for base, m in ((ZZ, 12), (GAUSSIAN, (1, 1)), (P2, (1, 1, 1))):
        R = quotient_ring(base, m)
        assert R.zero == R._reduce(base.zero)


def _lattice_by_scan(n):
    out = []
    for d in range(1, n + 1):
        if n % d == 0:
            flag = is_prime(d)
            out.append((d, flag, flag))
    return out


def test_divisor_lattice_matches_the_full_scan():
    for n in list(range(1, 200)) + [720, 997, 1024, 99960]:
        assert ideal_divisor_lattice(n) == _lattice_by_scan(n)


def test_divisor_lattice_of_large_moduli():
    for p in (10**17 + 3, 10**18 + 3):
        assert ideal_divisor_lattice(p) == [(1, False, False), (p, True, True)]
    lat = ideal_divisor_lattice(10**12 + 1)
    assert len(lat) == 8
    assert [d for d, prime, _ in lat if prime] == [73, 137, 99990001]


# ------------------------------------------- residue hooks against the ladder

def _gaussian_residues_by_scan(Q):
    """Every (a, b) in [0, N)^2 reduced, first occurrences in scan order."""
    n = GAUSSIAN.norm(Q.modulus)
    seen, out = set(), []
    for a in range(n):
        for b in range(n):
            r = Q._reduce((a, b))
            if r not in seen:
                seen.add(r)
                out.append(r)
    return out


def _additive_order_of_one(Q):
    x, k = Q.one, 1
    while not Q.is_zero(x):
        x = Q.add(x, Q.one)
        k += 1
    return k


@given(st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=120, deadline=None)
def test_gaussian_residues_match_the_square_scan(a, b):
    assume(a * a + b * b > 1)
    Q = quotient_ring(GAUSSIAN, (a, b))
    assert list(Q.elements()) == _gaussian_residues_by_scan(Q)
    assert Q.characteristic() == _additive_order_of_one(Q)
    assert Q.cardinality() == a * a + b * b


def _ladder(Q):
    """(is_field, is_finite, characteristic, cardinality) as decided by
    branching on the type of the base."""
    base, m = Q.base, Q.modulus
    if isinstance(base, IntegerRing):
        return is_prime(m), True, m, m
    if isinstance(base, PolyRing):
        coeff = base.base
        deg = len(m) - 1
        if deg == 1:
            prime = True
        elif isinstance(coeff, ModRing) and coeff.is_field:
            prime = poly_is_irreducible_fp(Element(base, m))
        elif isinstance(coeff, RationalField) and deg in (2, 3):
            prime = not rational_roots(Element(base, m))
        elif isinstance(coeff, RationalField):
            prime = irreducibility_pipeline(Element(base, m)).is_irreducible
        else:
            prime = False
        q = coeff.cardinality()
        return (prime, coeff.is_finite, base.characteristic(),
                None if q is None else q ** deg)
    n = base.norm(m)
    a, b = m
    if is_prime(n):
        prime = True
    elif a == 0 or b == 0:
        p = abs(a) or abs(b)
        prime = is_prime(p) and p % 4 == 3
    else:
        prime = False
    return prime, True, _additive_order_of_one(Q), n


def _ladder_grid():
    for n in range(2, 41):
        yield ZZ, n
    for p, top in ((2, 4), (3, 3), (5, 2)):
        P = poly_ring(ModRing(p))
        for d in range(1, top + 1):
            for tail in itertools.product(range(p), repeat=d):
                yield P, tail + (1,)
    PQ = poly_ring(QQ)
    for coeffs in ([1, 1], [-2, 0, 1], [-1, 0, 1], [1, 0, 1], [-2, 0, 0, 1],
                   [-1, 0, 0, 1], [1, 0, 0, 0, 1], [4, 0, 0, 0, 1],
                   [0, 0, 1], [1, 2, 1], [3, 5, 0, 2]):
        yield PQ, PQ.canon([Fraction(c) for c in coeffs])
    for a in range(-4, 5):
        for b in range(-4, 5):
            if a * a + b * b > 1:
                yield GAUSSIAN, (a, b)


def test_residue_hooks_match_the_type_ladder():
    for base, m in _ladder_grid():
        Q = quotient_ring(base, m)
        want = _ladder(Q)
        assert (Q.is_field, Q.is_finite, Q.characteristic(),
                Q.cardinality()) == want, Q.name()
        if want[1]:
            assert len(set(Q.elements())) == want[3]


def test_nilpotence_in_characteristic_zero_uses_the_radical():
    PQ = poly_ring(QQ)
    N = quotient_ring(PQ, PQ.canon([Fraction(c) for c in (0, 0, 1, 1)]))
    assert not N.is_finite
    assert N.is_nilpotent(N.canon([Fraction(0), Fraction(3), Fraction(3)]))
    assert not N.is_nilpotent(N.canon([Fraction(0), Fraction(1)]))
    # over Q(i), whose polynomial ring has no kernel record, the gcd
    # chain runs on the generic Euclid: (x^2 + 1)^2 = (x + i)^2 (x - i)^2
    G = parse_context("Quot(Poly(QuadF:-1),[1,0,2,0,1])")
    assert G.base.radical(G.modulus) == G.base.parse("x^2+1")
    assert G.is_nilpotent(G.parse("x^2+1"))
    assert not G.is_nilpotent(G.parse("x+i"))


def test_nilpotence_without_a_radical_comes_from_squaring():
    # GF(4)[x] is of characteristic 2 but not over a prime field, so it
    # finds no radical; x^2 + 1 = (x + 1)^2, whose nilpotents are the
    # multiples of x + 1
    R = parse_context("Quot(Poly(Quot(Fp:2,[1,1,1])),[1,0,1])")
    assert R.base.radical(R.modulus) is None
    nilpotents = [R.show(a) for a in R.elements() if R.is_nilpotent(a)]
    assert nilpotents == ["0", "[1,1]", "[x,x]", "[x+1,x+1]"]


def test_no_radical_over_z():
    # Z[x] is of characteristic 0 but has no division with remainder, so
    # the gcd chain cannot run: no radical, and no refusal either
    for m in ((1, 2, 1), (0, 0, 1), (5, 1)):
        assert PolyRing(ZZ).radical(m) is None
    assert PolyRing(QQ).radical(tuple(map(Fraction, (1, 2, 1)))) == (1, 1)


def test_a_quotient_decides_its_facts_when_first_asked(monkeypatch):
    # building one neither inverts m (the tower kernel does) nor asks
    # whether m is prime; each fact is asked of the base once
    import ringkit.poly

    calls = []
    for cls, name in ((ringkit.poly.Kernel, "inverse"),
                      (PolyRing, "is_prime_element"),
                      (PolyRing, "radical"), (PolyRing, "residue_kernel")):
        def counting(*args, name=name, real=getattr(cls, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(cls, name, counting)
    R = quotient_ring(P3, P3.element([1, 0, 1]))
    assert calls == []
    for _ in range(2):
        assert R.is_field
        assert R.kernel() is R.kernel()
        assert not R.is_nilpotent(R.canon([1, 1]))
    assert calls == ["is_prime_element", "residue_kernel", "inverse",
                     "radical"]


def test_moduli_and_reduced_elements_must_live_in_the_base():
    with pytest.raises(ContextMismatch):
        quotient_ring(ZZ, QQ.element(6))
    R = quotient_ring(ZZ, 6)
    with pytest.raises(ContextMismatch):
        q_reduce(R, ModRing(6).element(5))
    assert q_reduce(R, ZZ.element(11)) == q_reduce(R, 5)


def test_gf25_over_a_quotient_of_z_is_a_field():
    # x^2 + 2 has no root mod 5, so F_5[x]/(x^2 + 2) is GF(25); with F_5
    # given as Quot(Z, 5) it used to report level RING
    gf25 = parse_context("Quot(Poly(Quot(Z,5)),[2,0,1])")
    assert gf25.is_field and gf25.is_euclidean
    assert len(units_of(gf25)) == 24
    assert not parse_context("Quot(Poly(Quot(Z,5)),[1,0,1])").is_field


# ---------------------------- a quotient is a field when the pipeline says so

def _has_monic_divisor(P, m):
    """Brute force: a monic divisor of degree 1..deg(m)/2 over F_p."""
    p = P.base.cardinality()
    for d in range(1, (len(m) - 1) // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not P.divmod_(m, tail + (1,))[1]:
                return True
    return False


@given(st.sampled_from([2, 3, 7]), st.integers(2, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_fp_quotient_is_a_field_exactly_when_the_modulus_is_irreducible(
        p, deg, data):
    P = poly_ring(ModRing(p))
    m = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=deg,
                                 max_size=deg))) + (1,)
    verdict = irreducibility_pipeline(P.element(m))
    assert quotient_ring(P, m).is_field == verdict.is_irreducible
    if deg <= 4:
        assert verdict.is_irreducible == (not _has_monic_divisor(P, m))


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=6))
@settings(max_examples=150, deadline=None)
def test_q_quotient_is_a_field_exactly_when_the_pipeline_proves_it(tail):
    sympy = pytest.importorskip("sympy")
    PQ = poly_ring(QQ)
    m = PQ.canon([Fraction(c) for c in tail] + [Fraction(1)])
    verdict = irreducibility_pipeline(PQ.element(m))
    assert quotient_ring(PQ, m).is_field == verdict.is_irreducible
    if not verdict.is_inconclusive:
        x = sympy.Symbol("x")
        exact = sympy.Poly(list(reversed(m)), x, domain="QQ").is_irreducible
        assert exact == verdict.is_irreducible
