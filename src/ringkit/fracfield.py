"""Fields of fractions over integral domain contexts.

Payload: a pair (num, den) of base payloads with den != 0.  When the
base carries a Euclidean division (Z, polynomials over a field, the
Gaussian integers, or any field) fractions are kept reduced with a
canonical denominator, so payload equality is field equality.  Over
other domains (multivariate polynomials, real quadratic rings) no
canonical form is attempted: equality is decided by cross-multiplying,
and such elements refuse to hash.
"""

from .algebra import FIELD, Element, OverBase
from .errors import (
    ContextMismatch,
    NotADomain,
    RingError,
    ZeroDenominator,
)
from .euclid import gcd_payload
from .intutil import within_budget


class FracField(OverBase):
    """Frac(base) for an integral domain base."""

    level = FIELD

    def __init__(self, base):
        super().__init__(base)
        if not (base.is_domain and base.is_commutative):
            raise NotADomain(f"{base.name()} is not an integral domain")
        self.reduced = base.is_euclidean
        self.width = within_budget(2 * base.width, "fraction parts")

    def _key(self):
        return ("Frac", self.base)

    def name(self):
        return f"Frac({self.base.name()})"

    def _make(self, num, den):
        base = self.base
        if base.is_zero(den):
            raise ZeroDenominator("zero denominator")
        if base.is_field:
            # already the reduced form, with no gcd in the base
            return (base.mul(num, base.inverse(den)), base.one)
        if not self.reduced or base.eq(den, base.one):
            return (num, den)
        g = gcd_payload(base, num, den)
        if not base.is_zero(num):
            num = base.divmod_(num, g)[0]
            den = base.divmod_(den, g)[0]
        else:
            den = base.one
        u = base.canon_unit(den)
        return (base.mul(u, num), base.mul(u, den))

    def lift(self, c):
        return (c, self.base.one)

    @property
    def zero(self):
        return (self.base.zero, self.base.one)

    def canon(self, raw):
        try:
            num, den = raw
        except (TypeError, ValueError):
            raise RingError(f"expected a (num, den) pair, got {raw!r}")
        return self._make(self.base.canon(num), self.base.canon(den))

    def add(self, a, b):
        base = self.base
        return self._make(
            base.add(base.mul(a[0], b[1]), base.mul(b[0], a[1])),
            base.mul(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), a[1])

    def mul(self, a, b):
        base = self.base
        return self._make(base.mul(a[0], b[0]), base.mul(a[1], b[1]))

    def eq(self, a, b):
        base = self.base
        if self.reduced:
            return base.eq(a[0], b[0]) and base.eq(a[1], b[1])
        return base.eq(base.mul(a[0], b[1]), base.mul(b[0], a[1]))

    def hash_payload(self, a):
        if not self.reduced:
            raise TypeError(
                f"elements of {self.name()} have no canonical form and "
                "cannot hash")
        return hash((self.base.hash_payload(a[0]),
                     self.base.hash_payload(a[1])))

    def try_inverse(self, a):
        if self.base.is_zero(a[0]):
            return None
        return self._make(a[1], a[0])

    def is_nilpotent(self, a):
        return self.base.is_zero(a[0])

    def cardinality(self):
        return self.base.cardinality() if self.base.is_field else None

    def elements(self):
        if not self.is_finite:
            from .errors import InfiniteRing

            raise InfiniteRing(f"{self.name()} is not finite")
        return map(self.lift, self.base.elements())

    def show(self, a):
        from .parsing import atomic_or_parenthesized

        ns = self.base.show(a[0])
        if self.base.eq(a[1], self.base.one):
            return ns
        ds = self.base.show(a[1])
        return (f"{atomic_or_parenthesized(ns)}/"
                f"{atomic_or_parenthesized(ds)}")


def frac_field(base):
    return FracField(base)


def frac_make(num, den):
    """num/den as an element of Frac over the operands' shared context."""
    if num.ctx != den.ctx:
        raise ContextMismatch(f"{num.ctx.name()} vs {den.ctx.name()}")
    ctx = FracField(num.ctx)
    return Element(ctx, ctx._make(num.val, den.val))


def frac_embed(x):
    """The image of a domain element under r -> r/1."""
    ctx = FracField(x.ctx)
    return Element(ctx, ctx.lift(x.val))


def frac_num(x):
    return Element(x.ctx.base, x.val[0])


def frac_den(x):
    return Element(x.ctx.base, x.val[1])
