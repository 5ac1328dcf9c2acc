"""Ring contexts, elements, and the generic algorithms every ring shares.

A RingContext is a runtime descriptor of an ambient ring: it knows the
ring's capability level and implements the arithmetic on raw payloads.
Payloads are plain immutable Python values (ints, tuples, Fractions) kept
in a canonical form chosen per context, so payload equality is ring
equality everywhere except where a context overrides eq() (fractions over
bases with no canonical gcd compare by cross-multiplication).

An Element pairs one payload with one context and overloads the usual
operators.  Binary operations require equal contexts; plain ints coerce
via n . 1.

Each context declares one capability ordinal, level (RING < DOMAIN <
EUCLIDEAN < FIELD), and RingContext derives the flags is_domain,
is_gcd_domain, is_euclidean and is_field from it, so they form a chain
by construction: is_field implies is_euclidean implies is_gcd_domain
implies is_domain.  The level describes what this package can compute
in the context, not the full mathematical truth (e.g. real quadratic
rings are never flagged Euclidean because no division is implemented
for them).  is_commutative is a separate flag: it holds for every
context with level DOMAIN or above.

The generic algorithms state each rule once: one binary-doubling ladder
gives powers (ring_pow_payload, the one entry point) and multiples
(int_scale_payload), and polynomial_inverse decides the units of
polynomial rings in one variable and in many.
"""

import itertools
import math
from collections import namedtuple

from .errors import (
    ContextMismatch,
    ContextNotEuclidean,
    DivisionByZero,
    InfiniteRing,
    NotInvertible,
    NotPrimeCharacteristic,
    ParseError,
    RingError,
)
from .intutil import is_prime, within_budget

# Capability levels, in increasing order of what a context can do.
RING, DOMAIN, EUCLIDEAN, FIELD = range(4)


class RingContext:
    """Base class for all ring descriptors.

    Subclasses implement the payload kernel: zero/one, add/neg/mul,
    canon, show, and the capability level.  Everything else (sub,
    powers, integer scaling, enumeration-based classification, the
    expression parser) is generic.  signed marks the contexts whose
    payloads are ordered numbers (Z and Q): a sum of terms prints their
    sign instead of parenthesizing them.  width is the number of leaf
    payloads in one element, which composed contexts count against the
    work budget when they are built.
    """

    is_commutative = True
    level = RING
    signed = False
    width = 1

    @property
    def is_domain(self):
        return self.level >= DOMAIN

    @property
    def is_gcd_domain(self):
        return self.level >= EUCLIDEAN

    @property
    def is_euclidean(self):
        return self.level >= EUCLIDEAN

    @property
    def is_field(self):
        return self.level >= FIELD

    # -- identity ---------------------------------------------------

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def __repr__(self):
        return self.name()

    def name(self):
        """Canonical context literal, parseable by parse_context."""
        raise NotImplementedError

    # -- payload kernel ----------------------------------------------

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def canon(self, raw):
        """Normalize a raw payload into canonical form (validating it)."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b):
        return a == b

    def hash_payload(self, a):
        return hash(a)

    def is_zero(self, a):
        return self.eq(a, self.zero)

    def from_int(self, n):
        """The image of the integer n, i.e. n . 1."""
        return int_scale_payload(self, n, self.one)

    # -- units ---------------------------------------------------------

    def try_inverse(self, a):
        """Multiplicative inverse payload, or None when a is not a unit."""
        raise NotImplementedError

    def is_unit(self, a):
        return self.try_inverse(a) is not None

    def inverse(self, a):
        inv = self.try_inverse(a)
        if inv is None:
            raise NotInvertible(f"{self.show(a)} is not a unit in {self.name()}")
        return inv

    def is_nilpotent(self, a):
        # In a ring of N elements the right ideals aR, a^2R, ... shrink
        # strictly, so at least by half, until they reach 0: a nilpotent
        # a has a^k = 0 for some k <= log2 N, and s squarings reach
        # a^(2^s) with 2^s > N.bit_length() >= k.
        if self.is_domain:
            return self.is_zero(a)
        n = self.cardinality()
        if n is None:
            raise RingError(f"cannot decide nilpotence in {self.name()}")
        for _ in range(n.bit_length().bit_length()):
            if self.is_zero(a):
                return True
            a = self.mul(a, a)
        return self.is_zero(a)

    def local_structure(self):
        """(is_unit, is_nilpotent, idempotents) when this finite
        commutative context knows its decomposition into local rings:
        two predicates on payloads that do no ring arithmetic, and the
        set of idempotent payloads (see local_structure_of).  None
        otherwise, and classify tests each element."""
        return None

    # -- size ------------------------------------------------------------

    @property
    def is_finite(self):
        return self.cardinality() is not None

    def cardinality(self):
        """Number of elements, or None when infinite."""
        return None

    def elements(self):
        """Iterator over all payloads in deterministic order."""
        raise InfiniteRing(f"{self.name()} is not finite")

    def characteristic(self):
        raise NotImplementedError

    def kernel(self):
        """The kernel record that works on this context's payloads
        directly, built once per context, else None:
          * poly.IntKernel(n) for the ints of Z/n (n = 0 for Z), and
            gf2.F2Kernel in place of it for n = 2 (poly.int_kernel
            picks);
          * for the remainders mod m in F_p[y], poly.TowerKernel(p, m)
            for odd p and gf2.GF2kKernel(m) for p = 2
            (PolyRing.residue_kernel picks).
        Polynomial and series contexts over such a base hand it their
        arithmetic, with no call into this context; over any other
        base, to a poly.LoopKernel."""
        return None

    def residue_kernel(self, m):
        """The kernel() of Quot(self, m), else None (see quotient.py)."""
        return None

    def radical(self, m):
        """A generator of the radical of the ideal (m) when this context
        finds one, else None: then a quotient by m decides nilpotence by
        repeated squaring (Z[i] does, and Z past the work budget).
        Polynomials over F_p or in characteristic 0 find it without
        factoring m (factor.radical), Z as the product of the primes of
        m, which ModRing's nilpotence test reads too."""
        return None

    def prime_factors(self, m):
        """The distinct canonical primes g of m with their exponents e,
        as (g, e) pairs, when this context splits m (Z by
        intutil.factorize, F_p[x] by factor.factor_poly_fp), else None:
        then a quotient by m has no local_structure."""
        return None

    # -- Euclidean hooks (Z, polynomials over a field, Gaussian integers;
    #    fields get the trivial division for free)

    def divmod_(self, a, b):
        if self.is_field:
            if self.is_zero(b):
                raise DivisionByZero("division by zero")
            return self.mul(a, self.inverse(b)), self.zero
        raise ContextNotEuclidean(f"no division with remainder in {self.name()}")

    def euclid_kernel(self):
        """The kernel whose gcd and xgcd (by half-gcd on long operands)
        euclid runs this context's payloads on, else None."""
        return None

    def canon_unit(self, a):
        """Unit u such that u*a is the canonical associate of a."""
        if self.is_field:
            return self.one if self.is_zero(a) else self.inverse(a)
        raise ContextNotEuclidean(f"no canonical associate in {self.name()}")

    # -- text ---------------------------------------------------------

    def symbols(self):
        """Named payloads usable in expression literals (i, j, k, s, x)."""
        return {}

    def literal(self, text):
        """The payload of text when it is a literal of this context's own
        (a coefficient list, a tuple, a rational number), else None."""
        return None

    def parse(self, text):
        """The one text reader: a literal of this context, else an
        expression over symbols(), as eval reads it.  Returns a
        canonical payload."""
        val = self.literal(text)
        if val is None:
            from .parsing import parse_expr

            return parse_expr(self, text)
        return val

    def show(self, a):
        raise NotImplementedError

    # -- Element conveniences -------------------------------------------

    def element(self, raw):
        return Element(self, self.canon(raw))

    def embed(self, n):
        return Element(self, self.from_int(n))

    def parse_element(self, text):
        return Element(self, self.parse(text))


class OverBase(RingContext):
    """A context built on one base context: polynomials, series,
    fractions, quotients, matrices over base.

    A subclass writes lift(c), the payload of the base constant c; the
    characteristic, commutativity, one, the image of n, the base's
    named symbols and the reading of a base constant all follow from it.
    """

    def __init__(self, base):
        if not isinstance(base, RingContext):
            raise RingError(f"expected a ring context, got {base!r}")
        self.base = base
        self.width = base.width

    def lift(self, c):
        raise NotImplementedError

    @property
    def is_commutative(self):
        return self.base.is_commutative

    def characteristic(self):
        return self.base.characteristic()

    @property
    def one(self):
        # cached by plain assignment: functools.cached_property writes
        # through the instance __dict__, which CPython then keeps in place
        # of its faster inline attributes, and that slowed every
        # self.base read in the kernels (xgcd over F_101 by about a third)
        try:
            return self._one
        except AttributeError:
            self._one = self.lift(self.base.one)
            return self._one

    def from_int(self, n):
        return self.lift(self.base.from_int(n))

    def symbols(self):
        return {name: self.lift(c) for name, c in self.base.symbols().items()}

    def parse(self, text):
        """As RingContext.parse; a text that reads neither way is tried as
        a constant of the base, so bracketed base literals read back as
        they print."""
        try:
            return super().parse(text)
        except ParseError as refused:
            try:
                return self.lift(self.base.parse(text))
            except (ParseError, RingError):
                raise refused from None


class Element:
    """One value of one ring context, with operator sugar.

    Mixed-context arithmetic raises ContextMismatch; ints coerce through
    the context's from_int.
    """

    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    def _coerce(self, other):
        if isinstance(other, Element):
            return payload_in(self.ctx, other)
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return None

    # written out, not from one template, which costs up to 7 % (BENCH_17.json)
    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Element(self.ctx, self.ctx.add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Element(self.ctx, self.ctx.sub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Element(self.ctx, self.ctx.sub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Element(self.ctx, self.ctx.mul(self.val, v))

    def __rmul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Element(self.ctx, self.ctx.mul(v, self.val))

    def __neg__(self):
        return Element(self.ctx, self.ctx.neg(self.val))

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Element(self.ctx, self.ctx.mul(self.val, self.ctx.inverse(v)))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Element(self.ctx, self.ctx.mul(v, self.ctx.inverse(self.val)))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return Element(self.ctx, ring_pow_payload(self.ctx, self.val, n))

    def __divmod__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        q, r = self.ctx.divmod_(self.val, v)
        return Element(self.ctx, q), Element(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.ctx == other.ctx and self.ctx.eq(self.val, other.val)
        if isinstance(other, int):
            return self.ctx.eq(self.val, self.ctx.from_int(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.ctx.hash_payload(self.val)))

    def __bool__(self):
        return not self.ctx.is_zero(self.val)

    def __repr__(self):
        return self.ctx.show(self.val)

    def is_unit(self):
        return self.ctx.is_unit(self.val)

    def inverse(self):
        return Element(self.ctx, self.ctx.inverse(self.val))


# ----------------------------------------------------------------- generic

def _ladder(op, acc, a, n):
    """acc op a op ... op a, n >= 0 times a, by binary doubling."""
    while n:
        if n & 1:
            acc = op(acc, a)
        n >>= 1
        if n:
            a = op(a, a)
    return acc


def ring_pow_payload(ctx, a, n):
    """a**n by binary exponentiation; a**0 is one; negative n inverts."""
    if n < 0:
        return ring_pow_payload(ctx, ctx.inverse(a), -n)
    return _ladder(ctx.mul, ctx.one, a, n)


def ring_pow(x, n):
    return Element(x.ctx, ring_pow_payload(x.ctx, x.val, n))


def payload_in(ctx, x):
    """x as a payload of ctx: an Element of ctx gives its own, an Element
    of any other context raises ContextMismatch, and anything else goes
    through ctx.canon."""
    if isinstance(x, Element):
        if x.ctx != ctx:
            raise ContextMismatch(f"{ctx.name()} vs {x.ctx.name()}")
        return x.val
    return ctx.canon(x)


def show_terms(base, terms):
    """The sum of c*m over (m, c) pairs of a monomial text m ("" for 1)
    and a nonzero base payload c, in the order given.  A coefficient of
    a signed base prints its sign; any other prints bare when it is all
    digits, else in parentheses."""
    out = []
    for mono, c in terms:
        if base.signed:
            neg = c < 0
            cs = str(-c if neg else c)
            sign = "-" if neg else ("+" if out else "")
        else:
            cs = base.show(c)
            if not cs.isdigit():
                cs = f"({cs})"
            sign = "+" if out else ""
        if not mono:
            body = cs
        else:
            body = mono if cs == "1" else f"{cs}*{mono}"
        out.append(sign + body)
    return "".join(out)


def context_of(x, kinds, message):
    """x.ctx when x is an Element of an instance of kinds; otherwise
    RingError(message), with x filled in for a '{!r}' placeholder."""
    if not isinstance(x, Element) or not isinstance(x.ctx, kinds):
        raise RingError(message.format(x))
    return x.ctx


def polynomial_inverse(ctx, a, c0, rest):
    """The inverse of the polynomial a of ctx, whose constant term is c0
    and other coefficients rest, else None: a is a unit exactly when c0
    is and rest is nilpotent (over a commutative base; so, over a domain,
    never when rest is not empty).  Then u*a = 1 - t for u = c0^-1, and
    (1 - t)^-1 = (1 + t)(1 + t^2)(1 + t^4)... stops once t^(2^k) = 0."""
    base = ctx.base
    if rest and (base.is_domain or not base.is_commutative):
        return None
    u = base.try_inverse(c0)
    if u is None or not all(base.is_nilpotent(c) for c in rest):
        return None
    u = ctx.lift(u)
    if not rest:
        return u
    t = ctx.sub(ctx.one, ctx.mul(u, a))
    acc = ctx.one
    while not ctx.is_zero(t):
        acc = ctx.mul(acc, ctx.add(ctx.one, t))
        t = ctx.mul(t, t)
    return ctx.mul(u, acc)


def int_scale_payload(ctx, n, a):
    """n . a = a + ... + a (n times), by binary doubling; negative n negates."""
    if n < 0:
        return ctx.neg(int_scale_payload(ctx, -n, a))
    return _ladder(ctx.add, ctx.zero, a, n)


def int_scale(n, x):
    return Element(x.ctx, int_scale_payload(x.ctx, n, x.val))


def characteristic(ctx):
    """Least m > 0 with m . 1 = 0, or 0 when no such m exists."""
    return ctx.characteristic()


def frobenius(x):
    """The p-th power map in a commutative context of prime characteristic."""
    ctx = x.ctx
    if not ctx.is_commutative:
        raise NotPrimeCharacteristic(f"{ctx.name()} is not commutative")
    p = ctx.characteristic()
    if not is_prime(p):
        raise NotPrimeCharacteristic(
            f"characteristic of {ctx.name()} is {p}, not prime")
    return ring_pow(x, p)


def enumerate_elements(ctx):
    """All elements of a finite context, deterministic order, in budget."""
    n = ctx.cardinality()
    if n is None:
        raise InfiniteRing(f"{ctx.name()} is not finite")
    within_budget(n, f"elements of {ctx.name()}")
    return [Element(ctx, v) for v in ctx.elements()]


class Classification(namedtuple(
        "Classification", "units zero_divisors nilpotents idempotents")):
    __slots__ = ()


def local_structure_of(ctx, primes, multiples, radical, crt):
    """The local_structure triple of ctx = B/(m), m = g1^e1 ... gk^ek
    in a principal ideal ring B, which is the product of the local rings
    B/(gi^ei) (Atiyah and Macdonald, Thm 8.7): a is a unit when no gi
    divides it, so the non-units are the multiples of the primes gi; a
    is nilpotent when the radical g1 ... gk divides it; and the
    idempotents are the 2^k sums of subsets of the CRT idempotents crt,
    each 1 modulo one gi^ei and 0 modulo the others (with one local
    factor, 0 and 1).  multiples(g) iterates over the payloads of ctx
    that g divides, each once."""
    nonunits = set()
    for g in primes:
        nonunits.update(multiples(g))
    nilpotents = set(multiples(radical))
    idempotents = {ctx.zero}
    for e in crt:
        idempotents |= {ctx.add(s, e) for s in idempotents}
    return (lambda a: a not in nonunits), nilpotents.__contains__, idempotents


def classify(ctx):
    """Exhaustive unit/zero-divisor/nilpotent/idempotent classification.

    One enumeration decides all four, in enumeration order.  Where the
    context answers local_structure (Z/n, Quot(Z, n), Quot(F_p[x], m),
    series and products over them), its predicates and idempotent set
    decide each element with no ring arithmetic; it is asked only once
    the enumeration has passed the work budget, so an over-budget ring
    is refused before its modulus is factored.  Anywhere else (matrix
    rings, Quot over Z[i] or GF(q)[x]) each element costs one is_unit
    (a quotient asks for one gcd with the modulus, no cofactors), one
    is_nilpotent and one square a^2 = a.

    An element is a unit, or a zero divisor when it is none and nonzero.
    That is right in any finite ring, where the zero divisors (nonzero a
    annihilating some nonzero b on either side) are exactly the nonzero
    non-units: if a annihilates nothing on either side, x -> ax and
    x -> xa are injective on a finite set, hence onto, so ab = 1 = ca
    for some b, c, and then b = c is a two-sided inverse.  No
    commutativity is needed.  The trivial ring has no units under the
    usual 1 != 0 convention.
    """
    elements = enumerate_elements(ctx)
    local = ctx.local_structure()
    if local is None:
        is_unit, is_nilpotent = ctx.is_unit, ctx.is_nilpotent

        def is_idempotent(a):
            return ctx.eq(ctx.mul(a, a), a)
    else:
        is_unit, is_nilpotent, idempotent_set = local
        is_idempotent = idempotent_set.__contains__
    units, zero_divisors, nilpotents, idempotents = [], [], [], []
    for e in elements:
        a = e.val
        if is_unit(a):
            units.append(e)
        elif not ctx.is_zero(a):
            zero_divisors.append(e)
        if is_nilpotent(a):
            nilpotents.append(e)
        if is_idempotent(a):
            idempotents.append(e)
    return Classification(
        units=() if ctx.is_zero(ctx.one) else tuple(units),
        zero_divisors=tuple(zero_divisors),
        nilpotents=tuple(nilpotents),
        idempotents=tuple(idempotents),
    )


def units_of(ctx):
    return classify(ctx).units


def zero_divisors_of(ctx):
    return classify(ctx).zero_divisors


def nilpotents_of(ctx):
    return classify(ctx).nilpotents


def idempotents_of(ctx):
    return classify(ctx).idempotents


# ----------------------------------------------------------------- products

class ProductRing(RingContext):
    """Finite direct product with componentwise operations.

    Payload: tuple of component payloads.  Units are the componentwise
    units; the characteristic is the lcm of the component characteristics,
    absorbing 0.
    """

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise RingError("empty product")
        self.components = components
        self.width = within_budget(sum(c.width for c in components),
                                   "product components")

    def _key(self):
        return self.components

    def name(self):
        return "Prod(" + ",".join(c.name() for c in self.components) + ")"

    @property
    def is_commutative(self):
        return all(c.is_commutative for c in self.components)

    @property
    def level(self):
        return self.components[0].level if len(self.components) == 1 else RING

    @property
    def zero(self):
        return tuple(c.zero for c in self.components)

    @property
    def one(self):
        return tuple(c.one for c in self.components)

    def canon(self, raw):
        raw = tuple(raw)
        if len(raw) != len(self.components):
            raise ContextMismatch("component count mismatch")
        return tuple(c.canon(v) for c, v in zip(self.components, raw))

    def add(self, a, b):
        return tuple(c.add(x, y) for c, x, y in zip(self.components, a, b))

    def neg(self, a):
        return tuple(c.neg(x) for c, x in zip(self.components, a))

    def mul(self, a, b):
        return tuple(c.mul(x, y) for c, x, y in zip(self.components, a, b))

    def eq(self, a, b):
        return all(c.eq(x, y) for c, x, y in zip(self.components, a, b))

    def hash_payload(self, a):
        return hash(tuple(c.hash_payload(x) for c, x in zip(self.components, a)))

    def from_int(self, n):
        return tuple(c.from_int(n) for c in self.components)

    def try_inverse(self, a):
        invs = []
        for c, x in zip(self.components, a):
            ix = c.try_inverse(x)
            if ix is None:
                return None
            invs.append(ix)
        return tuple(invs)

    def is_unit(self, a):
        return all(c.is_unit(x) for c, x in zip(self.components, a))

    def is_nilpotent(self, a):
        return all(c.is_nilpotent(x) for c, x in zip(self.components, a))

    def local_structure(self):
        """Componentwise, when every component answers: the idempotents
        are the tuples of the components' idempotents."""
        parts = [c.local_structure() for c in self.components]
        if any(p is None for p in parts):
            return None
        units, nils, idems = zip(*parts)
        return (lambda a: all(u(x) for u, x in zip(units, a)),
                lambda a: all(n(x) for n, x in zip(nils, a)),
                set(itertools.product(*idems)))

    def cardinality(self):
        total = 1
        for c in self.components:
            n = c.cardinality()
            if n is None:
                return None
            total *= n
        return total

    def elements(self):
        return itertools.product(*(c.elements() for c in self.components))

    def characteristic(self):
        return math.lcm(*(c.characteristic() for c in self.components))

    def literal(self, text):
        """A tuple literal (c1,c2,...)."""
        from .parsing import group_items

        parts = group_items(text, "()")
        if parts is None:
            return None
        if len(parts) != len(self.components):
            raise ParseError("component count mismatch")
        return tuple(c.parse(p) for c, p in zip(self.components, parts))

    def show(self, a):
        return "(" + ",".join(c.show(x) for c, x in zip(self.components, a)) + ")"

