"""Truncated power series and Laurent expansions of series quotients.

A SeriesRing(base, prec) works in base[x] modulo x^prec: payloads are
tuples of exactly prec base payloads, so every element carries its full
coefficient window and equality is tuple equality.  Operations between
different precisions over the same base meet at the minimum precision
(ts_add/ts_mul below); the context's own operators require equal
contexts like everywhere else.

Every sum, negative, product and inverse is one call into the kernel
record of the base (poly.base_kernel).  A dense record (Z, Z/n and
Quot(Z, n) on ints, F_p[y]/(m) on tuples of ints mod p) picks its
algorithm by size: packed products and Newton iteration on long
windows, O(M(prec)) instead of O(prec^2) coefficient operations.  Over
any other base poly.LoopKernel runs the schoolbook product and the
inverse recurrence, one base call per coefficient operation.

Orders of vanishing are only known up to the window, so ts_ord returns
either a known order (index of the first nonzero coefficient) or the
statement "at least prec" when the window is all zeros.

A Laurent expansion f = x^(-n) * (unit series) is stored as a finite
principal part (negative exponents, nonzero coefficients only) plus a
truncated tail; printing appends the O(x^N) marker for the tail window.
"""

import itertools
from collections import namedtuple

from .algebra import RING, Element, OverBase, context_of, show_terms
from .errors import (
    ConstantTermNotUnit,
    ContextMismatch,
    DenominatorIndistinguishableFromZero,
    InfiniteRing,
    InvalidParameters,
    NotAField,
    ParseError,
    RingError,
)
from .intutil import within_budget
from .poly import PolyRing, base_kernel, x_power


class SeriesRing(OverBase):
    """base[x] truncated at x^prec, prec >= 1."""

    def __init__(self, base, prec):
        super().__init__(base)
        if not isinstance(prec, int) or prec < 1:
            raise InvalidParameters(f"precision must be >= 1, got {prec!r}")
        self.width = within_budget(prec * base.width, "series coefficients")
        self.prec = prec
        self.base_kernel = base_kernel(base)

    def _key(self):
        return ("Series", self.base, self.prec)

    def name(self):
        return f"Series({self.base.name()},{self.prec})"

    @property
    def level(self):
        # base[x] mod x has the base's level; x is a zero divisor above that
        return self.base.level if self.prec == 1 else RING

    def _fit(self, coeffs):
        return (tuple(coeffs[:self.prec])
                + (self.base.zero,) * (self.prec - len(coeffs)))

    def lift(self, c):
        return self._fit((c,))

    @property
    def zero(self):
        return (self.base.zero,) * self.prec

    def canon(self, raw):
        try:
            coeffs = tuple(raw)
        except TypeError:
            raise RingError(f"expected a coefficient sequence, got {raw!r}")
        return self._fit([self.base.canon(c) for c in coeffs])

    def add(self, a, b):
        # a dense kernel trims the sum, which _fit pads back to the window
        return self._fit(self.base_kernel.add(a, b))

    # coefficientwise, as for the polynomial of the window
    neg = PolyRing.neg
    hash_payload = PolyRing.hash_payload

    def mul(self, a, b):
        return tuple(self.base_kernel.mul(a, b, self.prec))

    def eq(self, a, b):
        return all(self.base.eq(x, y) for x, y in zip(a, b))

    def try_inverse(self, a):
        inv = self.base_kernel.inverse(a, self.prec)
        return None if inv is None else tuple(inv)

    # the ideal (x) is nilpotent here, so the constant term decides
    # units, and nilpotents over a commutative base
    def is_unit(self, a):
        return self.base.is_unit(a[0])

    def is_nilpotent(self, a):
        return self.base.is_nilpotent(a[0])

    def local_structure(self):
        """The base's, through the constant term; an idempotent lifts
        uniquely over the nilpotent ideal (x), so the idempotents are
        the base's constants."""
        local = self.base.local_structure()
        if local is None:
            return None
        is_unit, is_nilpotent, idempotents = local
        pad = (self.base.zero,) * (self.prec - 1)
        return (lambda a: is_unit(a[0]), lambda a: is_nilpotent(a[0]),
                {(e,) + pad for e in idempotents})

    def cardinality(self):
        n = self.base.cardinality()
        return None if n is None else n ** self.prec

    def elements(self):
        if not self.base.is_finite:
            raise InfiniteRing(f"{self.name()} is not finite")
        return itertools.product(self.base.elements(), repeat=self.prec)

    def symbols(self):
        return {**super().symbols(),
                "x": self._fit((self.base.zero, self.base.one))}

    def literal(self, text):
        """A literal [c0,c1,...;N] (N read and checked, the window is
        this context's)."""
        literal = series_literal(text)
        if literal is None:
            return None
        coeffs, prec = literal
        if prec not in (None, self.prec):
            raise ParseError(
                f"precision marker ;{prec} does not match {self.name()}")
        return self._fit([self.base.parse(c) for c in coeffs])

    def show(self, a):
        inner = ",".join(self.base.show(c) for c in a)
        return f"[{inner};{self.prec}]"


def series_literal(text):
    """(coefficient texts, N or None) for a literal [c0,c1,...;N] whose
    ';N' is optional; None when text is not one [...] group."""
    from .parsing import group_items, split_top

    items = group_items(text)
    if items is None:
        return None
    *coeffs, last = items or [""]
    last, *marker = split_top(last, ";")
    coeffs.append(last.strip())
    try:  # at most one marker, and an integer
        (prec,) = [int(m) for m in marker] or [None]
    except ValueError:
        raise ParseError(f"bad precision marker in {text!r}") from None
    return ([] if coeffs == [""] else coeffs), prec


class OrderVal(namedtuple("OrderVal", "kind n")):
    """Order of vanishing: an exact value or a lower bound at the window."""

    __slots__ = ()

    @classmethod
    def known(cls, n):
        return cls("known", n)

    @classmethod
    def at_least(cls, n):
        return cls("at_least", n)

    @property
    def is_known(self):
        return self.kind == "known"

    def __str__(self):
        return str(self.n) if self.is_known else f">={self.n}"


_NOT_SERIES = "expected a truncated series, got {!r}"


def ts_ord(x):
    ctx = context_of(x, SeriesRing, _NOT_SERIES)
    for i, c in enumerate(x.val):
        if not ctx.base.is_zero(c):
            return OrderVal.known(i)
    return OrderVal.at_least(ctx.prec)


def ts_truncate(x, prec):
    """Project to a smaller window; growing the window would invent data."""
    ctx = context_of(x, SeriesRing, _NOT_SERIES)
    if not 1 <= prec <= ctx.prec:
        raise InvalidParameters(
            f"cannot truncate precision {ctx.prec} to {prec}")
    if prec == ctx.prec:
        return x
    small = SeriesRing(ctx.base, prec)
    return Element(small, x.val[:prec])


def _meet(f, g):
    fc = context_of(f, SeriesRing, _NOT_SERIES)
    gc = context_of(g, SeriesRing, _NOT_SERIES)
    if fc.base != gc.base:
        raise ContextMismatch(
            f"series over {fc.base.name()} vs {gc.base.name()}")
    m = min(fc.prec, gc.prec)
    return ts_truncate(f, m), ts_truncate(g, m)


def ts_add(f, g):
    f, g = _meet(f, g)
    return f + g


def ts_mul(f, g):
    f, g = _meet(f, g)
    return f * g


def ts_invert(x):
    ctx = context_of(x, SeriesRing, _NOT_SERIES)
    inv = ctx.try_inverse(x.val)
    if inv is None:
        raise ConstantTermNotUnit(
            f"constant term {ctx.base.show(x.val[0])} is not a unit in "
            f"{ctx.base.name()}")
    return Element(ctx, inv)


class LaurentSeries(namedtuple("LaurentSeries", "principal tail")):
    """Finitely many negative-exponent terms plus a truncated tail."""

    __slots__ = ()

    @property
    def base(self):
        return self.tail.ctx.base

    def order(self):
        if self.principal:
            return OrderVal.known(self.principal[0][0])
        return ts_ord(self.tail)

    def __repr__(self):
        return laurent_show(self)


def laurent_show(ls):
    base = ls.base
    terms = itertools.chain(ls.principal, (
        (e, c) for e, c in enumerate(ls.tail.val) if not base.is_zero(c)))
    body = show_terms(base, ((x_power(e), c) for e, c in terms))
    marker = f"O(x^{ls.tail.ctx.prec})"
    return body + "+" + marker if body else marker


def laurent_from_fraction(num, den):
    """Expand num/den as x^(-n) times a unit series.

    den must have a nonzero coefficient inside its window (otherwise it
    is indistinguishable from zero and the quotient is meaningless) and
    the base must be a field so the shifted denominator inverts.
    """
    nctx = context_of(num, SeriesRing, _NOT_SERIES)
    dctx = context_of(den, SeriesRing, _NOT_SERIES)
    if nctx.base != dctx.base:
        raise ContextMismatch(
            f"series over {nctx.base.name()} vs {dctx.base.name()}")
    base = nctx.base
    if not base.is_field:
        raise NotAField(f"{base.name()} is not a field")
    o = ts_ord(den)
    if not o.is_known:
        raise DenominatorIndistinguishableFromZero(
            f"denominator vanishes to order >= {dctx.prec}")
    n = o.n
    shifted_prec = dctx.prec - n
    window = min(nctx.prec, shifted_prec)
    tail_prec = window - n
    if tail_prec < 1:
        raise InvalidParameters(
            "window too small to see any nonnegative exponents")
    shifted = Element(SeriesRing(base, shifted_prec), den.val[n:])
    inv = ts_invert(shifted)
    prod = ts_mul(ts_truncate(num, window), ts_truncate(inv, window))
    principal = tuple(
        (k - n, c) for k, c in enumerate(prod.val[:n])
        if not base.is_zero(c))
    tail = Element(SeriesRing(base, tail_prec), prod.val[n:])
    return LaurentSeries(principal=principal, tail=tail)


def series_ring(base, prec):
    return SeriesRing(base, prec)
