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
    one (polynomials over F_p or in characteristic 0 without factoring
    m, by factor.radical, the first level of its squarefree
    decomposition; Z as the product of the primes of m within the work
    budget), else None, and nilpotence is decided by repeated squaring.
    A quotient asks once and keeps the answer;
  * prime_factors(m): the canonical primes of m with their exponents
    where the base splits m (Z by intutil.factorize, F_p[x] by
    factor.factor_poly_fp), else None (Z[i]).  local_structure builds
    classify's predicates from them, with no arithmetic per element;
  * residue_kernel(m): the kernel record that works on the remainders
    directly, which the quotient's kernel() hook returns to polynomial
    and series rings over it; None over any other base, a tower
    included, so there is no tower of towers:
      - over Z, poly.int_kernel(m), where the remainders are the ints of
        range(m) as in Z/m: gf2.F2Kernel for m = 2, IntKernel(m)
        otherwise;
      - over F_p[y] for odd p, poly.TowerKernel(p, m), where they are
        tuples of ints mod p;
      - over F_2[y], gf2.GF2kKernel(m), on tuples of 0/1 too, whose
        division, Euclid and powers run on one int per polynomial.

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

from . import intutil
from .algebra import (
    FIELD,
    RING,
    Element,
    OverBase,
    local_structure_of,
    payload_in,
    ring_pow_payload,
)
from .errors import (
    ContextNotEuclidean,
    FactorsMismatch,
    InfiniteRing,
    InvalidParameters,
    NotInvertible,
)
from .euclid import crt_idempotents, gcd_payload, xgcd_payload
from .intutil import within_budget


_UNSET = object()


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
        # filled when first asked (a tower inverts m, primality may run the
        # irreducibility pipeline), into plain attributes: a
        # functools.cached_property's write through __dict__ would slow
        # every later attribute read and method call on the ring
        self._level = self._radical = self._kernel = _UNSET

    def _key(self):
        return ("Quot", self.base, self.modulus)

    def name(self):
        return f"Quot({self.base.name()},{self.base.show(self.modulus)})"

    def _reduce(self, x):
        return self.base.divmod_(x, self.modulus)[1]

    lift = _reduce

    @property
    def level(self):
        # in these principal ideal contexts nonzero primes are maximal
        if self._level is _UNSET:
            self._level = FIELD if self.base.is_prime_element(
                self.modulus) else RING
        return self._level

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

    def is_nilpotent(self, a):
        if self._radical is _UNSET:
            self._radical = self.base.radical(self.modulus)
        if self._radical is None:
            return super().is_nilpotent(a)
        return self.base.is_zero(self.base.divmod_(a, self._radical)[1])

    def local_structure(self):
        """From the base's prime_factors of the modulus, else None: the
        multiples of a prime g are the g h for the residues h modulo
        m / g, each a remainder already."""
        base, m = self.base, self.modulus
        factors = base.prime_factors(m)
        if factors is None:
            return None
        primes = [g for g, _ in factors]

        def multiples(g):
            return (base.mul(g, h)
                    for h in base.residues(base.divmod_(m, g)[0]))

        crt = crt_idempotents(
            [Element(base, ring_pow_payload(base, g, e)) for g, e in factors])
        return local_structure_of(self, primes, multiples,
                                  functools.reduce(base.mul, primes),
                                  [e.val for e in crt])

    def characteristic(self):
        return self.base.residue_characteristic(self.modulus)

    def cardinality(self):
        return self.base.residue_count(self.modulus)

    def elements(self):
        if not self.is_finite:
            raise InfiniteRing(f"{self.name()} is not finite")
        return self.base.residues(self.modulus)

    def kernel(self):
        if self._kernel is _UNSET:
            self._kernel = self.base.residue_kernel(self.modulus)
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


# the integer verb's lattice, kept under its name here
ideal_divisor_lattice = intutil.ideal_divisor_lattice
