"""Reference arithmetic that checks ringkit's results without using ringkit.

Every function here works on plain data (ints, Fractions, lists) and
raises CheckFailed when a result is wrong.  Nothing in this module
imports ringkit, so a fault in a ringkit kernel cannot hide itself by
also corrupting the check.

Polynomials are lists of coefficients in ascending degree with no
trailing zeros.  Coefficient arithmetic goes through a small field
object (Fp, QQ or GF2k) so one set of polynomial routines serves every
base the benchmark uses.  Products over Z and F_p are checked by
Kronecker packing into one big int, which stays fast at degree 2000.
"""

import itertools
import math
from fractions import Fraction


class CheckFailed(Exception):
    """A result failed its independent check."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


# ----------------------------------------------------------------- fields

class Fp:
    """The prime field Z/p on ints in range(p)."""

    zero, one = 0, 1

    def __init__(self, p):
        self.p = p

    def norm(self, a):
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        require(a % self.p, "inverse of zero")
        return pow(a, -1, self.p)


class QQ:
    """The rationals on Fractions."""

    zero, one = Fraction(0), Fraction(1)

    @staticmethod
    def norm(a):
        return Fraction(a)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        require(a != 0, "inverse of zero")
        return 1 / Fraction(a)


class GF2k:
    """GF(2^k) as F_2[y]/(m) on ints read as bit vectors (bit i = y^i)."""

    zero, one = 0, 1

    def __init__(self, modulus_bits):
        self.m = modulus_bits
        self.k = modulus_bits.bit_length() - 1

    def norm(self, a):
        return self.mul(a, 1)

    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
        for shift in range(out.bit_length() - 1 - self.k, -1, -1):
            if out >> (shift + self.k) & 1:
                out ^= self.m << shift
        return out

    def inv(self, a):
        require(a, "inverse of zero")
        out, e = 1, (1 << self.k) - 2
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


# ------------------------------------------------------------ polynomials

def strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def pnorm(K, a):
    return strip(K.norm(x) for x in a)


def padd(K, a, b):
    n = max(len(a), len(b))
    a = list(a) + [K.zero] * (n - len(a))
    b = list(b) + [K.zero] * (n - len(b))
    return strip(K.add(x, y) for x, y in zip(a, b))


def psub(K, a, b):
    n = max(len(a), len(b))
    a = list(a) + [K.zero] * (n - len(a))
    b = list(b) + [K.zero] * (n - len(b))
    return strip(K.sub(x, y) for x, y in zip(a, b))


def _pack(a, nbytes):
    return int.from_bytes(
        b"".join(x.to_bytes(nbytes, "little") for x in a), "little")


def _mul_nonneg(a, b):
    """Product of polynomials with nonnegative int coefficients."""
    bound = min(len(a), len(b)) * max(a) * max(b)
    nbytes = bound.bit_length() // 8 + 1
    v = _pack(a, nbytes) * _pack(b, nbytes)
    n = len(a) + len(b) - 1
    raw = v.to_bytes(n * nbytes, "little")
    return [int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little")
            for i in range(n)]


def zmul(a, b):
    """Product over Z by Kronecker packing, split by sign."""
    if not a or not b:
        return []
    ap, an = [max(x, 0) for x in a], [max(-x, 0) for x in a]
    bp, bn = [max(x, 0) for x in b], [max(-x, 0) for x in b]
    out = [0] * (len(a) + len(b) - 1)
    for u, v, sign in ((ap, bp, 1), (an, bn, 1), (ap, bn, -1), (an, bp, -1)):
        if any(u) and any(v):
            for i, c in enumerate(_mul_nonneg(u, v)):
                out[i] += sign * c
    return strip(out)


def pmul(K, a, b):
    """Product over K: Kronecker packing over F_p, schoolbook otherwise."""
    if not a or not b:
        return []
    if isinstance(K, Fp):
        return pnorm(K, _mul_nonneg([x % K.p for x in a],
                                    [x % K.p for x in b]))
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return strip(out)


def pdivmod(K, a, b):
    """Schoolbook division with remainder over a field."""
    b = pnorm(K, b)
    require(b, "division by zero polynomial")
    r = pnorm(K, a)
    inv = K.inv(b[-1])
    q = [K.zero] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        c = K.mul(r[-1], inv)
        k = len(r) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] = K.sub(r[k + i], K.mul(c, bc))
        r = strip(r)
    return strip(q), r


def pmonic(K, a):
    return pmul(K, [K.inv(a[-1])], a) if a else []


def pgcd(K, a, b):
    a, b = pnorm(K, a), pnorm(K, b)
    while b:
        a, b = b, pdivmod(K, a, b)[1]
    return pmonic(K, a)


def ppowmod(K, a, e, m):
    out, a = [K.one], pdivmod(K, a, m)[1]
    while e:
        if e & 1:
            out = pdivmod(K, pmul(K, out, a), m)[1]
        a = pdivmod(K, pmul(K, a, a), m)[1]
        e >>= 1
    return out


def prime_factors(n):
    """Distinct primes of a small positive int, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def rabin_irreducible(p, f):
    """Rabin's test: is the polynomial f over F_p irreducible?"""
    K = Fp(p)
    f = pmonic(K, pnorm(K, f))
    n = len(f) - 1
    if n < 1:
        return False
    x = [0, 1]

    def frob_power(k):
        h = x
        for _ in range(k):
            h = ppowmod(K, h, p, f)
        return h

    if pdivmod(K, psub(K, frob_power(n), x), f)[1]:
        return False
    for q in prime_factors(n):
        if len(pgcd(K, psub(K, frob_power(n // q), x), f)) > 1:
            return False
    return True


# ----------------------------------------------------------------- checks

def check_mul(K, a, b, c):
    if K is None:
        want = zmul(a, b)
    else:
        want = pmul(K, a, b)
    require(strip(c) == want, "product differs from the packed product")


def check_divmod(K, a, b, q, r):
    require(len(strip(r)) < len(strip(b)), "remainder degree not below divisor")
    back = padd(K, pmul(K, q, b), r)
    require(back == pnorm(K, a), "a != q*b + r")


def check_xgcd(K, a, b, g, x, y):
    require(g and g[-1] == K.one, "gcd is not monic")
    back = padd(K, pmul(K, a, x), pmul(K, b, y))
    require(back == pnorm(K, g), "Bezout identity fails")
    require(not pdivmod(K, a, g)[1], "gcd does not divide a")
    require(not pdivmod(K, b, g)[1], "gcd does not divide b")


def check_series_inverse(K, f, g, prec):
    require(len(g) == prec, "inverse window has the wrong length")
    prod = pmul(K, f, g)[:prec]
    require(strip(prod) == [K.one], "f * f^-1 != 1 mod x^prec")


def check_series_mul(K, a, b, c, prec):
    require(len(c) == prec, "product window has the wrong length")
    want = pmul(K, a, b)[:prec]
    require(strip(c) == strip(want), "series product differs")


def check_matmul(K, A, B, C):
    n = len(A)
    for i in range(n):
        for j in range(n):
            acc = []
            for k in range(n):
                acc = padd(K, acc, pmul(K, A[i][k], B[k][j]))
            require(strip(C[i][j]) == acc, f"matrix product entry ({i},{j})")


def check_frac(K, num, den, want_num, want_den):
    """num/den is the reduced form of want_num/want_den over K[x]."""
    require(den and den[-1] == K.one, "denominator is not monic")
    if not num:
        require(den == [K.one], "zero fraction with denominator != 1")
    else:
        require(len(pgcd(K, num, den)) == 1, "fraction is not reduced")
    require(pmul(K, num, want_den) == pmul(K, want_num, den),
            "fraction differs by cross-multiplication")


def bareiss_det(rows):
    """Determinant over Z by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def check_det(modulus, A, d):
    want = bareiss_det(A)
    if modulus:
        want %= modulus
    require(d == want, "determinant differs from Bareiss elimination")


def _matvec_mod(A, x, modulus):
    out = [sum(a * b for a, b in zip(row, x)) for row in A]
    return [v % modulus for v in out] if modulus else out


def check_mat_inverse(modulus, A, B):
    n = len(A)
    for j in range(n):
        col = _matvec_mod(A, [B[i][j] for i in range(n)], modulus)
        require(col == [int(i == j) for i in range(n)], "A * A^-1 != I")


def check_cramer(modulus, A, b, x):
    want = [v % modulus for v in b] if modulus else list(b)
    require(_matvec_mod(A, x, modulus) == want, "A * x != b")


def miller_rabin(n):
    """Deterministic Miller-Rabin for n < 3.3e24 (first 13 prime bases)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_factor_integer(n, unit, factors):
    require(unit in (1, -1), "unit is not +-1")
    acc = unit
    primes = [p for p, _ in factors]
    require(primes == sorted(set(primes)), "primes not distinct ascending")
    for p, e in factors:
        require(e >= 1 and miller_rabin(p), f"factor {p} is not prime")
        acc *= p ** e
    require(acc == n, "factors do not multiply back to n")


def check_factor_poly(p, f, unit, factors):
    K = Fp(p)
    acc = [K.norm(unit)]
    seen = set()
    for g, e in factors:
        g = pnorm(K, g)
        require(g and g[-1] == 1, "factor is not monic")
        require(tuple(g) not in seen, "repeated factor")
        seen.add(tuple(g))
        require(e >= 1 and rabin_irreducible(p, g),
                f"factor {g} fails Rabin's test")
        for _ in range(e):
            acc = pmul(K, acc, g)
    require(acc == pnorm(K, f), "factors do not multiply back to f")


def check_crt(congruences, x, modulus):
    big = 1
    for _, m in congruences:
        big *= m
    require(modulus == big, "modulus is not the product of the moduli")
    require(0 <= x < modulus, "solution is not reduced")
    for b, m in congruences:
        require((x - b) % m == 0, f"x != {b} mod {m}")


def divisors(n):
    out = [1]
    for q in prime_factors(n):
        e, m = 0, n
        while m % q == 0:
            m, e = m // q, e + 1
        out = [d * q ** k for d in out for k in range(e + 1)]
    return sorted(out)


def check_ideal_lattice(n, lattice):
    require([d for d, _, _ in lattice] == divisors(n),
            "ideals are not the divisors of n")
    for d, prime, maximal in lattice:
        # in Z/n the ideal (d) is prime iff it is maximal iff d is prime
        require(prime == maximal == miller_rabin(d), f"flags of ({d})")


def zshift(f, a):
    """f(x + a) over Z, by Horner's rule."""
    out = []
    for c in reversed(f):
        nxt = [0] * (len(out) + 1)
        for i, x in enumerate(out):
            nxt[i] += a * x
            nxt[i + 1] += x
        nxt[0] += c
        out = nxt
    return strip(out)


def primitive(f):
    g = 0
    for c in f:
        g = math.gcd(g, c)
    sign = -1 if f[-1] < 0 else 1
    return [sign * c // g for c in f]


def check_certificate(f, status, cert, data):
    """Replay an irreducibility certificate for f in Z[x] independently."""
    g = primitive(strip(f))
    deg = len(g) - 1
    if cert is None:
        require(status == "inconclusive", f"{status} without a certificate")
    elif cert == "eisenstein":
        p, h = data["p"], zshift(g, data["shift"])
        require(status == "irreducible" and miller_rabin(p),
                "Eisenstein needs a prime")
        require(h[-1] % p and all(c % p == 0 for c in h[:-1])
                and h[0] % (p * p), f"Eisenstein fails at p={p}")
    elif cert == "reduction":
        p = data["p"]
        require(status == "irreducible" and miller_rabin(p) and g[-1] % p,
                "reduction needs a prime not dividing the lead")
        require(rabin_irreducible(p, g), f"f mod {p} is reducible")
    elif cert == "rational-root":
        r = data["root"]
        val = Fraction(0)
        for c in reversed(g):
            val = val * r + c
        require(status == "reducible" and deg >= 2 and val == 0,
                f"{r} is not a root")
    elif cert == "exhaustive":
        require(status == "irreducible" and deg == 1,
                "exhaustive certificate above degree 1")
    else:
        raise CheckFailed(f"unexpected certificate {cert!r}")


# ---------------------------------------------------------- classification

def check_classify_zn(n, units, zero_divisors, nilpotents, idempotents):
    rad = math.prod(prime_factors(n)) if n > 1 else 1
    want_units = [a for a in range(n) if math.gcd(a, n) == 1]
    require(sorted(units) == want_units, "units differ from gcd(a, n) = 1")
    require(len(units) == euler_phi(n), "unit count differs from phi(n)")
    require(sorted(zero_divisors) == [a for a in range(1, n)
                                      if math.gcd(a, n) != 1],
            "zero divisors differ from the nonzero non-units")
    require(sorted(nilpotents) == list(range(0, n, rad)),
            "nilpotents differ from the multiples of rad(n)")
    require(len(set(idempotents)) == 2 ** len(prime_factors(n)),
            "idempotent count differs from 2^omega(n)")
    for e in idempotents:
        require(e * e % n == e, f"{e} is not idempotent")


def euler_phi(n):
    out = n
    for q in prime_factors(n):
        out = out // q * (q - 1)
    return out


def check_classify_model(model, units, zero_divisors, nilpotents,
                         idempotents):
    """Check a classification against a RingModel built from the ring's
    known structure: closed-form counts, the unit/zero-divisor
    partition of the nonzero elements, and e*e = e, x^k = 0."""
    for name, got in (("units", units), ("zero divisors", zero_divisors),
                      ("nilpotents", nilpotents),
                      ("idempotents", idempotents)):
        require(len(set(got)) == len(got), f"repeated element in {name}")
        if model.elements is not None:
            require(set(got) <= model.elements, f"{name} leave the ring")
    require(model.zero not in units and model.zero not in zero_divisors,
            "zero counted as a unit or zero divisor")
    require(not set(units) & set(zero_divisors),
            "an element is both a unit and a zero divisor")
    require(len(units) + len(zero_divisors) == model.total - 1,
            "units and zero divisors do not cover the nonzero elements")
    counts = (len(units), len(nilpotents), len(idempotents))
    require(counts == model.counts,
            f"(units, nilpotents, idempotents) = {counts}, "
            f"closed form {model.counts}")
    if model.is_unit is not None:
        require(all(model.is_unit(u) for u in units), "a unit fails")
        require(not any(model.is_unit(z) for z in zero_divisors),
                "a zero divisor is a unit")
    for e in idempotents:
        require(model.eq(model.mul(e, e), e), f"{e} is not idempotent")
    for x in nilpotents:
        for _ in range(model.total.bit_length()):
            x = model.mul(x, x)
        require(model.eq(x, model.zero), "a nilpotent has no zero power")


class RingModel:
    """What the checker knows about a finite ring before classifying it."""

    def __init__(self, total, zero, mul, counts, elements=None,
                 is_unit=None, eq=None):
        self.total = total
        self.zero = zero
        self.mul = mul
        self.counts = tuple(counts)
        self.elements = elements
        self.is_unit = is_unit
        self.eq = eq or (lambda a, b: a == b)


def quot_fp_model(q, factors):
    """F_q[x]/(prod g^e) for monic irreducibles g (Chinese remaindering
    gives the counts: |units| = prod (q^(d e) - q^(d (e-1))))."""
    K = Fp(q)
    m = [1]
    units = nil = 1
    for g, e in factors:
        d = len(g) - 1
        for _ in range(e):
            m = pmul(K, m, g)
        units *= q ** (d * e) - q ** (d * (e - 1))
        nil *= q ** (d * (e - 1))
    n = len(m) - 1
    elements = {tuple(strip(t)) for t in itertools.product(range(q), repeat=n)}
    return RingModel(
        q ** n, (), lambda a, b: tuple(pdivmod(K, pmul(K, a, b), m)[1]),
        (units, nil, 2 ** len(factors)), elements)


def mat2_model(q):
    """2 x 2 matrices over F_q: |GL_2| = (q^2-1)(q^2-q), q^2 nilpotents
    (A^2 = 0), and q^2+q+2 idempotents (0, 1 and the rank-one ones)."""
    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) % q
                           for j in range(2)) for i in range(2))

    elements = {((a, b), (c, d))
                for a, b, c, d in itertools.product(range(q), repeat=4)}
    return RingModel(q ** 4, ((0, 0), (0, 0)), mul,
                     ((q * q - 1) * (q * q - q), q * q, q * q + q + 2),
                     elements)


def series_model(q, prec):
    """F_q[x]/(x^prec): units have a nonzero constant term."""
    K = Fp(q)

    def mul(a, b):
        out = pmul(K, a, b)[:prec]
        return tuple(out + [0] * (prec - len(out)))

    elements = set(itertools.product(range(q), repeat=prec))
    return RingModel(q ** prec, (0,) * prec, mul,
                     ((q - 1) * q ** (prec - 1), q ** (prec - 1), 2),
                     elements)


def prod_zn_model(a, b):
    """Z/a x Z/b, componentwise."""
    def nil(n):
        return n // math.prod(prime_factors(n))

    elements = {(x, y) for x in range(a) for y in range(b)}
    return RingModel(
        a * b, (0, 0), lambda u, v: (u[0] * v[0] % a, u[1] * v[1] % b),
        (euler_phi(a) * euler_phi(b), nil(a) * nil(b),
         2 ** (len(prime_factors(a)) + len(prime_factors(b)))),
        elements)


def gaussian_model(primes):
    """Z[i]/(prod pi^e) for Gaussian primes pi = (a, b), a + b i."""
    def gmul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def divides(d, x):
        nd = d[0] ** 2 + d[1] ** 2
        t = gmul(x, (d[0], -d[1]))
        return t[0] % nd == 0 and t[1] % nd == 0

    m = (1, 0)
    units = nil = 1
    for pi, e in primes:
        for _ in range(e):
            m = gmul(m, pi)
        norm = pi[0] ** 2 + pi[1] ** 2
        units *= norm ** (e - 1) * (norm - 1)
        nil *= norm ** (e - 1)
    return RingModel(
        m[0] ** 2 + m[1] ** 2, (0, 0), gmul,
        (units, nil, 2 ** len(primes)),
        is_unit=lambda x: not any(divides(pi, x) for pi, _ in primes),
        eq=lambda a, b: divides(m, (a[0] - b[0], a[1] - b[1])))
