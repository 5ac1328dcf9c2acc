"""Quotients of Euclidean contexts by a principal ideal.

A QuotientRing stores the canonically associated modulus m and keeps
every payload as the remainder of division by m, which is a unique
coset representative in all three Euclidean contexts (least nonnegative
residue in Z, remainder of lower degree for polynomials, the
nearest-integer remainder for Gaussian integers, whose rounding is
translation invariant).  Units invert through the extended Euclidean
algorithm on representatives, and one gcd with m tells them apart.

Whatever depends on what m generates is asked of the base context, so
this module names no base type.  The base answers through its residue
hooks:

  * residue_count(m): the number of classes, None when infinite;
  * residues(m): one canonical payload per class, in a fixed order;
  * residue_characteristic(m): the additive order of 1 modulo m;
  * is_prime_element(m): whether (m) is prime, hence maximal, which
    makes the quotient a field, else a RING; for F_p[x] and Q[x] the
    verdict of factor.irreducibility_pipeline, INCONCLUSIVE counting no;
  * radical(m): a generator of the radical of (m) where the base finds
    one without factoring m (polynomials over F_p from their
    distinct-degree groups, in characteristic 0 from the gcd with the
    derivative), else None, and nilpotence is decided by repeated
    squaring.  A quotient asks once and keeps the answer;
  * residue_kernel(m): the kernel record that works on the remainders
    directly, which the quotient's kernel() hook returns to polynomial
    and series rings over it: poly.int_kernel(m) over Z, where they are
    the ints of range(m) as in Z/m (F2Kernel for m = 2, IntKernel(m)
    otherwise), and TowerKernel(p, m) over F_p[y], where they are
    tuples of ints mod p; None over any other base, a tower included,
    so there is no tower of towers.

Z, the polynomial rings over a field and the Gaussian integers
implement them.  They are the only bases a quotient can be built on: a
field has no nonzero non-unit, and the other contexts that claim
Euclidean division (a one-component product, series or matrix ring over
Z) have no canonical associate.

iso_check_crt tests the splitting Z/n = Z/f1 x ... x Z/fr by brute
force, within the work budget: the factors must multiply to n, and the
residue map is checked for bijectivity on all of Z/n.
"""

import functools

from .algebra import FIELD, RING, Element, OverBase, payload_in
from .errors import (
    ContextNotEuclidean,
    FactorsMismatch,
    InfiniteRing,
    InvalidParameters,
    NotInvertible,
)
from .euclid import gcd_payload, xgcd_payload
from .intutil import divisors, factorize, within_budget


class QuotientRing(OverBase):
    """base modulo the principal ideal of a nonzero non-unit."""

    def __init__(self, base, modulus):
        super().__init__(base)
        if not base.is_euclidean:
            raise ContextNotEuclidean(
                f"{base.name()} has no Euclidean division")
        m = payload_in(base, modulus)
        if base.is_zero(m):
            raise InvalidParameters("modulus must be nonzero")
        if base.is_unit(m):
            raise InvalidParameters("modulus must not be a unit")
        self.modulus = base.mul(base.canon_unit(m), m)

    def _key(self):
        return ("Quot", self.base, self.modulus)

    def name(self):
        return f"Quot({self.base.name()},{self.base.show(self.modulus)})"

    def _reduce(self, x):
        return self.base.divmod_(x, self.modulus)[1]

    lift = _reduce

    @functools.cached_property
    def level(self):
        # in these principal ideal contexts nonzero primes are maximal
        return FIELD if self.base.is_prime_element(self.modulus) else RING

    @property
    def zero(self):
        # zero is its own remainder in all three bases
        return self.base.zero

    def is_zero(self, a):
        return self.base.is_zero(a)

    def canon(self, raw):
        return self._reduce(self.base.canon(raw))

    def add(self, a, b):
        return self._reduce(self.base.add(a, b))

    def neg(self, a):
        return self._reduce(self.base.neg(a))

    def mul(self, a, b):
        return self._reduce(self.base.mul(a, b))

    def eq(self, a, b):
        return self.base.eq(a, b)

    def hash_payload(self, a):
        return self.base.hash_payload(a)

    def is_unit(self, a):
        # coprime to m: one gcd, without the cofactors of try_inverse
        return self.base.is_unit(gcd_payload(self.base, a, self.modulus))

    def try_inverse(self, a):
        g, x, _ = xgcd_payload(self.base, a, self.modulus)
        u = self.base.try_inverse(g)
        if u is None:
            return None
        return self._reduce(self.base.mul(x, u))

    @functools.cached_property
    def _radical(self):
        # base.radical(m), asked once per ring
        return self.base.radical(self.modulus)

    def is_nilpotent(self, a):
        if self._radical is None:
            return super().is_nilpotent(a)
        return self.base.is_zero(self.base.divmod_(a, self._radical)[1])

    def characteristic(self):
        return self.base.residue_characteristic(self.modulus)

    def cardinality(self):
        return self.base.residue_count(self.modulus)

    def elements(self):
        if not self.is_finite:
            raise InfiniteRing(f"{self.name()} is not finite")
        return self.base.residues(self.modulus)

    @functools.cached_property
    def _kernel(self):
        # when first asked: a tower inverts m, which a quotient that no
        # polynomial or series ring is built on never needs
        return self.base.residue_kernel(self.modulus)

    def kernel(self):
        return self._kernel

    def show(self, a):
        return self.base.show(a)


def quotient_ring(base, modulus):
    return QuotientRing(base, modulus)


def q_reduce(qctx, x):
    return Element(qctx, qctx.lift(payload_in(qctx.base, x)))


def q_lift(x):
    """The canonical representative, as an element of the base."""
    return Element(x.ctx.base, x.val)


def q_is_unit(x):
    return x.ctx.is_unit(x.val)


def q_inverse(x):
    inv = x.ctx.try_inverse(x.val)
    if inv is None:
        g = gcd_payload(x.ctx.base, x.val, x.ctx.modulus)
        raise NotInvertible(
            f"{x!r} shares the factor {x.ctx.base.show(g)} with the modulus",
            gcd=Element(x.ctx.base, g))
    return Element(x.ctx, inv)


def q_cardinality(qctx):
    return qctx.cardinality()


def iso_check_crt(n, factors):
    """Does x -> (x mod f_i) identify Z/n with the product of the Z/f_i?
    The f_i multiply to n, so each divides n and the map always respects
    + and *; only its bijectivity is checked, on all n residues."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParameters(f"need a positive modulus, got {n!r}")
    factors = list(factors)
    if not factors:
        raise FactorsMismatch("no factors given")
    prod = 1
    for f in factors:
        if not isinstance(f, int) or f < 1:
            raise InvalidParameters(f"bad factor {f!r}")
        prod *= f
    if prod != n:
        raise FactorsMismatch(f"factors multiply to {prod}, not {n}")
    within_budget(n, f"residues of Z/{n}")
    images = {tuple(x % f for f in factors) for x in range(n)}
    return len(images) == n


def ideal_divisor_lattice(n):
    """All ideals of Z/n as divisor generators, with prime/maximal flags:
    (d) is prime, hence maximal, exactly when d is a prime factor of n."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParameters(f"need a positive modulus, got {n!r}")
    primes = {p for p, _ in factorize(n)}
    return [(d, d in primes, d in primes) for d in divisors(n)]
