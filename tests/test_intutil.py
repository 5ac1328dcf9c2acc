"""The integer engine: Miller-Rabin, Pollard rho, divisors, the work budget.

Each fast routine is checked against the square-root loop it replaced,
kept here as its oracle, and against sympy when that is installed.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ringkit.errors import TooLarge
from ringkit.intutil import (
    BUDGET,
    PSI_13,
    _rho,
    divisors,
    factorize,
    is_prime,
    is_squarefree,
    primes_up_to,
    within_budget,
)


def _is_prime_by_trial(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    k = 5
    while k * k <= n:
        if n % k == 0 or n % (k + 2) == 0:
            return False
        k += 6
    return True


def _factors_by_trial(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _divisors_by_scan(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _prime_near(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        if _is_prime_by_trial(n):
            return n


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(-5, 10**5) if is_prime(n)] == [
        n for n in range(-5, 10**5) if _is_prime_by_trial(n)]


def test_is_prime_matches_trial_division_below_10_12():
    rng = random.Random(1)
    for n in [rng.randrange(10**12) for _ in range(300)] + [10**12 + 39]:
        assert is_prime(n) == _is_prime_by_trial(n), n


@pytest.mark.parametrize("n", [
    3215031751,                  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,         # ... to the first 9 prime bases
    318665857834031151167461,    # ... to the first 12 prime bases
])
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)


def test_primality_is_refused_from_psi_13_on():
    with pytest.raises(TooLarge):
        is_prime(PSI_13)
    with pytest.raises(TooLarge):
        is_prime(2**89 - 1)
    # above PSI_13 a composite that fails a base is still refused as prime
    assert not is_prime((2**61 - 1) * (2**31 - 1))
    assert is_prime(10**18 + 9)


def test_factorize_and_divisors_match_the_square_root_loops():
    rng = random.Random(2)
    ns = [1, 2, 4, 97, 720, 2**30, 3**19, 99991**2] + [
        rng.randrange(1, 10**9) for _ in range(200)]
    for n in ns:
        assert factorize(n) == _factors_by_trial(n), n
        assert divisors(n) == _divisors_by_scan(n), n
        assert divisors(-n) == divisors(n)
        assert is_squarefree(n) == all(e == 1 for _, e in _factors_by_trial(n))


def test_factorize_splits_products_of_primes_near_10_6():
    rng = random.Random(3)
    for _ in range(4):
        p = _prime_near(rng, 9 * 10**5, 10**6)
        q = _prime_near(rng, 9 * 10**5, 10**6)
        r = _prime_near(rng, 9 * 10**5, 10**6)
        assert factorize(p * q) == _factors_by_trial(p * q)
        assert factorize(p * q * r * p) == _factors_by_trial(p * q * r * p)
    assert divisors(p * q) == _divisors_by_scan(p * q)


def _prime_at_least(n):
    while not _is_prime_by_trial(n):
        n += 1
    return n


@given(st.integers(50, 10**7), st.integers(50, 10**7), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_brent_rho_round_trips_semiprimes_and_prime_powers(a, b, k):
    # primes above SMALL_PRIMES, so rho (or the root test) splits them
    p, q = _prime_at_least(a), _prime_at_least(b)
    n = p**k * q
    want = [(p, k + 1)] if p == q else sorted([(p, k), (q, 1)])
    fac = factorize(n)
    assert fac == want
    assert math.prod(r**e for r, e in fac) == n
    if p != q and k == 1:
        d, steps = _rho(n, 0)
        assert d in (p, q) and 0 < steps <= BUDGET


def test_factorize_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4)
    for n in [rng.randrange(1, 10**18) for _ in range(40)] + [10**30 + 7]:
        assert factorize(n) == sorted(sympy.factorint(n).items()), n


def test_within_budget():
    assert within_budget(BUDGET, "work") == BUDGET
    with pytest.raises(TooLarge, match="work: 1000001 exceeds"):
        within_budget(BUDGET + 1, "work")


def test_divisor_lists_stay_within_the_budget():
    # 2^19 divisors fit, the 2^25 of the product of the primes below 100
    # are refused before the list is built
    primes = [n for n in range(100) if _is_prime_by_trial(n)]
    assert len(divisors(math.prod(primes[:19]))) == 2**19
    with pytest.raises(TooLarge):
        divisors(math.prod(primes))


@pytest.mark.parametrize("factors", [
    [(10**18 + 3, 2)],
    [(10**12 + 39, 3)],
    [(999983, 2), (10**12 + 39, 2)],
    [(43, 7), (10**18 + 9, 2)],
])
def test_factorize_splits_perfect_powers_of_large_primes(factors):
    # rho would need about sqrt(p) steps for p^k: far over the budget here
    n = math.prod(p**e for p, e in factors)
    assert factorize(n) == factors


def test_the_sieve_stays_within_the_budget():
    assert primes_up_to(BUDGET)[-1] == 999983
    with pytest.raises(TooLarge):
        primes_up_to(BUDGET + 1)
