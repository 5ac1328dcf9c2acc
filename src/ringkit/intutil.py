"""Integer helpers shared across the package, and the one work budget.

is_prime is Miller-Rabin, factorize splits perfect powers by integer
roots and the rest by Pollard's rho with Brent's cycle finding after the
small primes, each rho step counted against the budget, and divisors
are expanded from the factorization, which with the primes gives the
ideal lattice of Z/n.  Every search
whose cost grows with its input calls within_budget first, so work above
BUDGET raises TooLarge instead of running unbounded.
"""

import itertools
import math
from collections import Counter
from functools import lru_cache

from .errors import InvalidParameters, TooLarge

BUDGET = 10**6
# decimal digits of an int read or printed: 10^5 print in about 0.15 s
MAX_DIGITS = BUDGET // 10
# the irreducibility pipeline's Eisenstein search: primes and shifts up to
DEFAULT_PRIME_BOUND = 50
DEFAULT_SHIFT_BOUND = 10

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# steps of Pollard's rho between two gcds
RHO_BATCH = 128
# the least strong pseudoprime to every base in SMALL_PRIMES
PSI_13 = 3317044064679887385961981


def within_budget(work, what):
    """work, when it is at most BUDGET; TooLarge naming what otherwise."""
    if work > BUDGET:
        raise TooLarge(f"{what}: {work} exceeds the work budget of {BUDGET}")
    return work


@lru_cache(maxsize=None)
def is_prime(n):
    """Miller-Rabin on the bases SMALL_PRIMES: a proof below PSI_13
    (Sorenson and Webster 2015).  Above it a number that passes every
    base raises TooLarge."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PSI_13:
        raise TooLarge(f"{n} passes Miller-Rabin to the first 13 prime "
                       f"bases, a proof of primality only below {PSI_13}")
    return True


def _rho(n, steps):
    """A proper divisor of the composite n and the running step count, by
    Pollard's rho on x^2 + c for c = 1, 2, ... with Brent's cycle finding
    (Brent 1980): y runs ahead of the saved x in stretches of doubling
    length, one product per step, and the x - y are multiplied up mod n
    and tested by one gcd per batch of at most RHO_BATCH steps.  A batch
    whose gcd is n is replayed step by step from its start.  Each step
    counts one unit of the budget, checked before it runs."""
    what = f"Pollard rho steps on {n}"
    for c in itertools.count(1):
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            steps = within_budget(steps + r, what)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys, m = y, min(RHO_BATCH, r - k)
                steps = within_budget(steps + m, what)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = math.gcd(q, n)
                k += m
            r *= 2
        if d == n:
            steps = within_budget(steps + m, what)
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(x - ys, n)
        if d != n:
            return d, steps


def _root(n):
    """r with r^k = n for a prime k, or None when n is no perfect power.

    Pollard's rho needs about sqrt(p) steps to split p^k, so perfect
    powers are split by integer k-th roots (Newton's method from above).
    n has no prime factor in SMALL_PRIMES, so r > 2^5 and k <= bits/5.
    """
    for k in filter(is_prime, range(2, n.bit_length() // 5 + 1)):
        r = 1 << -(-n.bit_length() // k)
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
        if r ** k == n:
            return r
    return None


def factorize(n):
    """The prime factorization of n >= 1 as ascending (p, e) pairs."""
    exps = Counter()
    for p in SMALL_PRIMES:
        while n % p == 0:
            n //= p
            exps[p] += 1
    todo, steps = [n] if n > 1 else [], 0
    while todo:
        m = todo.pop()
        if is_prime(m):
            exps[m] += 1
        else:
            d = _root(m)
            if d is None:
                d, steps = _rho(m, steps)
            todo += [d, m // d]
    return sorted(exps.items())


def divisors(n):
    """The positive divisors of |n| != 0, ascending."""
    factors = factorize(abs(n))
    within_budget(math.prod(e + 1 for _, e in factors), f"divisors of {n}")
    out = [1]
    for p, e in factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def ideal_divisor_lattice(n):
    """All ideals of Z/n as divisor generators, with prime/maximal flags:
    (d) is prime, hence maximal, exactly when d is a prime factor of n."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParameters(f"need a positive modulus, got {n!r}")
    primes = {p for p, _ in factorize(n)}
    return [(d, d in primes, d in primes) for d in divisors(n)]


def primes_up_to(bound):
    """All primes <= bound, ascending (simple sieve)."""
    if bound < 2:
        return []
    within_budget(bound, "sieve bound")
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for k in range(2, math.isqrt(bound) + 1):
        if sieve[k]:
            sieve[k * k:: k] = bytearray(len(sieve[k * k:: k]))
    return [k for k in range(bound + 1) if sieve[k]]


def is_squarefree(n):
    """True when no square of a prime divides n (n may be negative)."""
    return n != 0 and all(e == 1 for _, e in factorize(abs(n)))
