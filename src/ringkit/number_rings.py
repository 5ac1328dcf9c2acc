"""Numeric contexts: Z, Q, Z/n, quadratic rings and fields, quaternions.

Payload conventions:

  * IntegerRing       -- int
  * RationalField     -- fractions.Fraction (always reduced by the stdlib)
  * ModRing(n)        -- int in range(n)
  * QuadIntRing(d)    -- pair (a, b) of ints meaning a + b*sqrt(d)
  * QuadFieldRing(d)  -- pair (a, b) of Fractions
    (both share QuadraticRing's arithmetic, norm, parsing and printing)
  * QuaternionAlgebra -- 4-tuple of Fractions (coefficients of 1, i, j, k)

d must be squarefree and not 1.  QuadIntRing(-1) is the Gaussian
integers and is the only quadratic integer context that carries the
Euclidean hooks; its canonical gcd representative is the associate in
the first quadrant (positive real part, nonnegative imaginary part).
"""

import math
from fractions import Fraction

from .algebra import (
    DOMAIN,
    EUCLIDEAN,
    FIELD,
    RING,
    Element,
    RingContext,
    context_of,
    show_terms,
)
from .errors import (
    DivisionByZero,
    InvalidParameters,
    NotInvertible,
    RingError,
)
from .intutil import factorize, is_prime, is_squarefree
from .poly import int_kernel


class IntegerRing(RingContext):
    """The rational integers with ordinary division-with-remainder."""

    level = EUCLIDEAN
    signed = True

    def __init__(self):
        self._kernel = int_kernel(0)

    def _key(self):
        return ("Z",)

    def name(self):
        return "Z"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def canon(self, raw):
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise RingError(f"expected an integer, got {raw!r}")
        return raw

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return n

    def try_inverse(self, a):
        return a if a in (1, -1) else None

    def characteristic(self):
        return 0

    def kernel(self):
        return self._kernel

    def divmod_(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero")
        q, r = divmod(a, b)
        if r < 0:
            # divmod already gives 0 <= r < |b| for b > 0; fix b < 0
            q += 1
            r -= b
        return q, r

    def canon_unit(self, a):
        return -1 if a < 0 else 1

    # -- residue hooks for Quot(Z, m), m > 1

    def residue_count(self, m):
        return m

    def residues(self, m):
        return iter(range(m))

    def residue_characteristic(self, m):
        return m

    def residue_kernel(self, m):
        return int_kernel(m)

    def is_prime_element(self, m):
        return is_prime(m)

    def show(self, a):
        return str(a)


class RationalField(RingContext):
    """The field of rational numbers, backed by fractions.Fraction."""

    level = FIELD
    signed = True

    def _key(self):
        return ("Q",)

    def name(self):
        return "Q"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def canon(self, raw):
        if isinstance(raw, bool):
            raise RingError(f"expected a rational, got {raw!r}")
        if isinstance(raw, int):
            return Fraction(raw)
        if isinstance(raw, Fraction):
            return raw
        raise RingError(f"expected a rational, got {raw!r}")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return Fraction(n)

    def try_inverse(self, a):
        return None if a == 0 else Fraction(1, a)

    def characteristic(self):
        return 0

    def literal(self, text):
        """A rational number as Fraction reads it: 2/3, -4, 1.5."""
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            return None

    def show(self, a):
        return str(a)


class ModRing(RingContext):
    """Integers modulo n, with canonical residues in range(n)."""

    def __init__(self, n):
        if not isinstance(n, int) or n < 1:
            raise InvalidParameters(f"modulus must be a positive integer, got {n!r}")
        self.n = n
        self.level = FIELD if is_prime(n) else RING
        self._kernel = int_kernel(n)

    def _key(self):
        return ("Mod", self.n)

    def name(self):
        return f"Fp:{self.n}" if self.is_field else f"Zn:{self.n}"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.n

    def canon(self, raw):
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise RingError(f"expected an integer residue, got {raw!r}")
        return raw % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return -a % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n % self.n

    def try_inverse(self, a):
        if math.gcd(a, self.n) != 1:
            return None
        return pow(a, -1, self.n)

    def inverse(self, a):
        g = math.gcd(a % self.n, self.n)
        if g != 1:
            raise NotInvertible(
                f"{a % self.n} is not invertible modulo {self.n} "
                f"(gcd {g})", gcd=g)
        return pow(a, -1, self.n)

    def characteristic(self):
        return self.n

    def kernel(self):
        return self._kernel

    def cardinality(self):
        return self.n

    def elements(self):
        return iter(range(self.n))

    def show(self, a):
        return str(a % self.n)


class QuadraticRing(RingContext):
    """The arithmetic Z[sqrt(d)] and Q(sqrt(d)) share, for squarefree
    d != 1: payload pairs (a, b) meaning a + b*sqrt(d), whose
    coefficients are of type coeff, with zero and one as class
    constants.  prefix names the context literal."""

    def __init__(self, d):
        if not isinstance(d, int) or d == 1 or not is_squarefree(d):
            raise InvalidParameters(f"d must be a squarefree integer != 1, got {d!r}")
        self.d = d

    def _key(self):
        return (self.d,)

    def name(self):
        return f"{self.prefix}:{self.d}"

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def neg(self, x):
        return (-x[0], -x[1])

    def mul(self, x, y):
        a, b = x
        c, e = y
        return (a * c + self.d * b * e, a * e + b * c)

    def from_int(self, n):
        return (self.coeff(n), self.coeff(0))

    def norm(self, x):
        a, b = x
        return a * a - self.d * b * b

    def conj(self, x):
        return (x[0], -x[1])

    def characteristic(self):
        return 0

    def symbols(self):
        sym = (self.zero[0], self.one[0])
        names = {"s": sym}
        if self.d == -1:
            names["i"] = sym
        return names

    def show(self, x):
        return _show_numbers(zip(("", "i" if self.d == -1 else "s"), x))


class QuadIntRing(QuadraticRing):
    """Z[sqrt(d)] for squarefree d != 1, elements a + b*sqrt(d)."""

    prefix = "Quad"
    coeff = int
    zero = (0, 0)
    one = (1, 0)

    def __init__(self, d):
        super().__init__(d)
        self.level = EUCLIDEAN if d == -1 else DOMAIN

    def canon(self, raw):
        try:
            a, b = raw
        except (TypeError, ValueError):
            raise RingError(f"expected a coefficient pair, got {raw!r}")
        if not isinstance(a, int) or not isinstance(b, int):
            raise RingError(f"expected integer coefficients, got {raw!r}")
        return (a, b)

    def try_inverse(self, x):
        n = self.norm(x)
        if n == 1:
            return self.conj(x)
        if n == -1:
            return self.neg(self.conj(x))
        return None

    def divmod_(self, x, y):
        if self.d != -1:
            return super().divmod_(x, y)
        if y == (0, 0):
            raise DivisionByZero("division by zero")
        n = self.norm(y)
        num = self.mul(x, self.conj(y))
        # nearest integer to t/n, ties broken upward: floor(t/n + 1/2)
        q = tuple((2 * t + n) // (2 * n) for t in num)
        r = self.sub(x, self.mul(q, y))
        return q, r

    def canon_unit(self, x):
        if self.d != -1:
            return super().canon_unit(x)
        if x == (0, 0):
            return (1, 0)
        for u in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            a, b = self.mul(u, x)
            if a > 0 and b >= 0:
                return u
        raise RingError("unreachable: no first-quadrant associate")

    # -- residue hooks for Quot(Z[i], m), m = a + bi in the first quadrant.
    # With g = gcd(a, b) and N = a^2 + b^2, the first coordinates of the
    # ideal (m) are exactly gZ, and its elements with first coordinate 0
    # are exactly (N/g)iZ.  So x + yi with 0 <= x < g, 0 <= y < N/g meet
    # each of the N classes once, and N/g is the additive order of 1.

    def residue_count(self, m):
        return self.norm(m)

    def residues(self, m):
        g = math.gcd(*m)
        return (self.divmod_((x, y), m)[1]
                for x in range(g) for y in range(self.norm(m) // g))

    def residue_characteristic(self, m):
        return self.norm(m) // math.gcd(*m)

    def is_prime_element(self, m):
        """Gaussian primes: a prime norm, or a rational prime p = 3 mod 4
        times a unit (whose norm p^2 is not prime)."""
        a, b = m
        if a and b:
            return is_prime(self.norm(m))
        p = abs(a + b)
        return p % 4 == 3 and is_prime(p)


class QuadFieldRing(QuadraticRing):
    """Q(sqrt(d)) for squarefree d != 1, with Fraction coefficients."""

    prefix = "QuadF"
    coeff = Fraction
    zero = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))
    level = FIELD

    def canon(self, raw):
        try:
            a, b = raw
        except (TypeError, ValueError):
            raise RingError(f"expected a coefficient pair, got {raw!r}")
        return (Fraction(a), Fraction(b))

    def try_inverse(self, x):
        n = self.norm(x)
        if n == 0:
            return None
        return (x[0] / n, -x[1] / n)


class QuaternionAlgebra(RingContext):
    """Hamilton's quaternions over Q: a noncommutative division ring."""

    is_commutative = False

    def _key(self):
        return ("H",)

    def name(self):
        return "H"

    @property
    def zero(self):
        z = Fraction(0)
        return (z, z, z, z)

    @property
    def one(self):
        z = Fraction(0)
        return (Fraction(1), z, z, z)

    def canon(self, raw):
        try:
            a, b, c, d = raw
        except (TypeError, ValueError):
            raise RingError(f"expected four coefficients, got {raw!r}")
        return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def add(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    def neg(self, x):
        return tuple(-p for p in x)

    def mul(self, x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def from_int(self, n):
        z = Fraction(0)
        return (Fraction(n), z, z, z)

    def norm_sq(self, x):
        return sum(p * p for p in x)

    def conj(self, x):
        return (x[0], -x[1], -x[2], -x[3])

    def try_inverse(self, x):
        n = self.norm_sq(x)
        if n == 0:
            return None
        return tuple(p / n for p in self.conj(x))

    def is_nilpotent(self, x):
        return self.is_zero(x)

    def characteristic(self):
        return 0

    def symbols(self):
        z = Fraction(0)
        o = Fraction(1)
        return {
            "i": (z, o, z, z),
            "j": (z, z, o, z),
            "k": (z, z, z, o),
        }

    def show(self, x):
        return _show_numbers(zip(("", "i", "j", "k"), x))


ZZ = IntegerRing()
QQ = RationalField()
HH = QuaternionAlgebra()


def _show_numbers(terms):
    """A sum of rational multiples of named units, 1 first; "0" if empty."""
    return show_terms(QQ, ((m, c) for m, c in terms if c)) or "0"

GAUSSIAN = QuadIntRing(-1)


def euler_phi(n):
    """Count of units in Z/n."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParameters(f"need a positive integer, got {n!r}")
    result = 1
    for p, e in factorize(n):
        result *= (p - 1) * p ** (e - 1)
    return result


_NOT_QUAD = "expected an element of a quadratic ring or field"


def quad_norm(x):
    """Multiplicative norm a^2 - d*b^2 as a plain int or Fraction."""
    return context_of(x, QuadraticRing, _NOT_QUAD).norm(x.val)


def quad_conj(x):
    return Element(x.ctx, context_of(x, QuadraticRing, _NOT_QUAD).conj(x.val))


def quad_is_unit(x):
    return context_of(x, QuadraticRing, _NOT_QUAD).try_inverse(x.val) is not None


def quad_inverse(x):
    inv = context_of(x, QuadraticRing, _NOT_QUAD).try_inverse(x.val)
    if inv is None:
        raise NotInvertible(f"{x!r} has norm {quad_norm(x)}, not a unit")
    return Element(x.ctx, inv)


def imaginary_unit_group(d):
    """All units of Z[sqrt(d)] for d < 0: the norm a^2 - d*b^2 is 1 at
    a = +-1, and at b = +-1 only when d = -1."""
    if not isinstance(d, int) or d >= 0:
        raise InvalidParameters(f"need a negative squarefree d, got {d!r}")
    ctx = QuadIntRing(d)
    units = [(1, 0), (-1, 0)] + ([(0, 1), (0, -1)] if d == -1 else [])
    return [Element(ctx, u) for u in units]


def fundamental_unit_search(d, bound):
    """Smallest unit a + b*sqrt(d) > 1 of Z[sqrt(d)], d > 1, with a, b <=
    bound, or None.  Every (a, b) with |a^2 - d*b^2| = 1 is a convergent
    of sqrt(d), so the convergents are walked until the first of norm
    +-1 or until a > bound: O(log bound) steps."""
    if not isinstance(d, int) or d <= 1 or not is_squarefree(d):
        raise InvalidParameters(f"need a squarefree d > 1, got {d!r}")
    if bound < 1:
        raise InvalidParameters("bound must be at least 1")
    r = math.isqrt(d)
    # complete quotient (m + sqrt(d)) / q with partial quotient c
    m, q, c = 0, 1, r
    a0, a, b0, b = 1, r, 0, 1
    while a <= bound:
        if abs(a * a - d * b * b) == 1:
            return Element(QuadIntRing(d), (a, b))
        m = c * q - m
        q = (d - m * m) // q
        c = (r + m) // q
        a0, a, b0, b = a, c * a + a0, b, c * b + b0
    return None


def gaussian_divmod(x, y):
    """Nearest-integer quotient and remainder in Z[i], N(r) <= N(y)/2."""
    if x.ctx != GAUSSIAN or y.ctx != GAUSSIAN:
        raise RingError("gaussian_divmod needs Gaussian integers")
    q, r = GAUSSIAN.divmod_(x.val, y.val)
    return Element(GAUSSIAN, q), Element(GAUSSIAN, r)


def sum_of_two_squares(p):
    """Write prime p as a+bi with a^2+b^2 = p, a <= b, or None when p = 3
    mod 4.  Cornacchia: for a non-residue c, x = c^((p-1)/4) squares to
    -1 mod p, and a is the first remainder below sqrt(p) in Euclid's
    algorithm on p and x."""
    if not is_prime(p):
        raise InvalidParameters(f"need a prime, got {p!r}")
    if p % 4 == 3:
        return None
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    x, a = p, pow(c, (p - 1) // 4, p)
    while a * a > p:
        x, a = a, x % a
    return Element(GAUSSIAN, tuple(sorted((a, math.isqrt(p - a * a)))))


def quat_conj(x):
    return Element(HH, HH.conj(x.val))


def quat_norm_sq(x):
    return HH.norm_sq(x.val)


def quat_inverse(x):
    inv = HH.try_inverse(x.val)
    if inv is None:
        raise DivisionByZero("zero quaternion has no inverse")
    return Element(HH, inv)


def pythagorean_triple(m, n):
    """Classic parametrization (m^2-n^2, 2mn, m^2+n^2) for m > n > 0."""
    if not (isinstance(m, int) and isinstance(n, int) and m > n > 0):
        raise InvalidParameters("need integers m > n > 0")
    return (m * m - n * n, 2 * m * n, m * m + n * n)


def quat_from_pair(z, w):
    """Embed a pair of Gaussian integers as z + w*j."""
    if z.ctx != GAUSSIAN or w.ctx != GAUSSIAN:
        raise RingError("expected Gaussian integers")
    a, b = z.val
    c, d = w.val
    return Element(HH, HH.canon((a, b, c, d)))
