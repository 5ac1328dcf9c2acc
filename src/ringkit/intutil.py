"""Small integer helpers shared across the package."""

import math
from functools import lru_cache


@lru_cache(maxsize=None)
def is_prime(n):
    """Deterministic primality test by trial division (desk scale)."""
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


def divisors(n):
    """The positive divisors of |n|, ascending (pairs d, n/d up to sqrt n)."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def primes_up_to(bound):
    """All primes <= bound, ascending (simple sieve)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for k in range(2, math.isqrt(bound) + 1):
        if sieve[k]:
            sieve[k * k:: k] = bytearray(len(sieve[k * k:: k]))
    return [k for k in range(bound + 1) if sieve[k]]


def trial_factors(n):
    """The prime factorization of n >= 1 as ascending (p, e) pairs, by
    trial division."""
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


def is_squarefree(n):
    """True when no square of a prime divides n (n may be negative)."""
    return n != 0 and all(e == 1 for _, e in trial_factors(abs(n)))
