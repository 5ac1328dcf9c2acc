"""Sparse multivariate polynomials over a commutative coefficient ring.

Monomial payload: tuple of (variable, exponent) pairs with distinct
variable names, exponents >= 1, sorted alphabetically; the empty tuple
is the constant monomial.  Polynomial payload: tuple of (monomial,
coefficient) pairs with nonzero canonical coefficients, sorted in
descending graded-lexicographic order, so payload equality is
polynomial equality and printing is deterministic.

Variables are named, not positional: x*y over this context and y*x over
another agree because both canonicalize the same way.  Homogeneity is
decided from the support, and the Euler-style scaling identity
f(t*X) = t^deg(f) * f(X) can be checked for any chosen scalar.
"""

import functools

from .algebra import (
    DOMAIN,
    Element,
    OverBase,
    context_of,
    payload_in,
    polynomial_inverse,
    ring_pow_payload,
)
from .errors import (
    InvalidParameters,
    MissingVariable,
    ParseError,
    RingError,
    VariableCollision,
    ZeroPolynomial,
)
from .poly import NEG_INF, PolyRing


def _mono_degree(mono):
    return sum(e for _, e in mono)


def _mono_cmp(m1, m2):
    d1, d2 = _mono_degree(m1), _mono_degree(m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    e1 = dict(m1)
    e2 = dict(m2)
    for v in sorted(set(e1) | set(e2)):
        a, b = e1.get(v, 0), e2.get(v, 0)
        if a != b:
            return 1 if a > b else -1
    return 0


_MONO_KEY = functools.cmp_to_key(_mono_cmp)


def _mono_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _mono_canon(raw):
    if isinstance(raw, str):
        return _mono_parse(raw)
    exps = {}
    for v, e in raw:
        if not (isinstance(v, str) and v and v[0].isalpha() and v.isalnum()):
            raise RingError(f"bad variable name {v!r}")
        if not isinstance(e, int) or e < 0:
            raise RingError(f"bad exponent {e!r} for {v}")
        if v in exps:
            raise RingError(f"repeated variable {v} in monomial")
        if e:
            exps[v] = e
    return tuple(sorted(exps.items()))


def _mono_parse(text):
    text = text.strip()
    if text == "1":
        return ()
    exps = {}
    for part in text.split("*"):
        part = part.strip()
        if "^" in part:
            v, _, e = part.partition("^")
            v = v.strip()
            try:
                e = int(e)
            except ValueError:
                raise ParseError(f"bad exponent in monomial {text!r}")
        else:
            v, e = part, 1
        if not (v and v[0].isalpha() and v.isalnum()):
            raise ParseError(f"bad variable in monomial {text!r}")
        if e < 1:
            raise ParseError(f"exponent must be positive in {text!r}")
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mono_show(mono):
    if not mono:
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)


class MultiPolyRing(OverBase):
    """Polynomials in arbitrarily many named variables over base."""

    def __init__(self, base):
        super().__init__(base)
        if not base.is_commutative:
            raise InvalidParameters("coefficients must commute")

    def _key(self):
        return ("MPoly", self.base)

    def name(self):
        return f"MPoly({self.base.name()})"

    @property
    def level(self):
        return min(self.base.level, DOMAIN)

    def _seal(self, terms, start=()):
        """The payload of start plus the (monomial, coefficient) terms:
        like terms added in order, zeros dropped, monomials descending."""
        table = dict(start)
        for m, c in terms:
            table[m] = self.base.add(table[m], c) if m in table else c
        items = [(m, c) for m, c in table.items() if not self.base.is_zero(c)]
        items.sort(key=lambda mc: _MONO_KEY(mc[0]), reverse=True)
        return tuple(items)

    def lift(self, c):
        return self._seal([((), c)])

    @property
    def zero(self):
        return ()

    def canon(self, raw):
        if isinstance(raw, dict):
            pairs = raw.items()
        else:
            try:
                pairs = list(raw)
            except TypeError:
                raise RingError(f"expected term pairs or a dict, got {raw!r}")
        return self._seal((_mono_canon(mono), self.base.canon(coeff))
                          for mono, coeff in pairs)

    def add(self, a, b):
        return self._seal(b, a)

    def neg(self, a):
        return tuple((m, self.base.neg(c)) for m, c in a)

    def mul(self, a, b):
        return self._seal((_mono_mul(m1, m2), self.base.mul(c1, c2))
                          for m1, c1 in a for m2, c2 in b)

    def eq(self, a, b):
        return len(a) == len(b) and all(
            m1 == m2 and self.base.eq(c1, c2)
            for (m1, c1), (m2, c2) in zip(a, b))

    def hash_payload(self, a):
        return hash(tuple((m, self.base.hash_payload(c)) for m, c in a))

    def try_inverse(self, a):
        table = dict(a)
        c0 = table.pop((), None)
        if c0 is None:
            return None
        return polynomial_inverse(self, a, c0, table.values())

    def is_nilpotent(self, a):
        return all(self.base.is_nilpotent(c) for _, c in a)

    # finite only over the zero ring, as in one variable
    cardinality = PolyRing.cardinality
    elements = PolyRing.elements

    def literal(self, text):
        """A literal {coeff:monomial,...}."""
        from .parsing import group_items

        items = group_items(text, "{}")
        if items is None:
            return None
        terms = []
        for item in items:
            coeff_part, sep, mono_part = item.partition(":")
            if not sep:
                raise ParseError(f"missing ':' in term {item!r}")
            terms.append((_mono_parse(mono_part),
                          self.base.parse(coeff_part.strip())))
        return self._seal(terms)

    def show(self, a):
        if not a:
            return "{}"
        inner = ",".join(
            f"{self.base.show(c)}:{_mono_show(m)}" for m, c in a)
        return "{" + inner + "}"


_NOT_MPOLY = "expected a multivariate polynomial, got {!r}"


def mv_ring(base):
    return MultiPolyRing(base)


def variables_of(f):
    context_of(f, MultiPolyRing, _NOT_MPOLY)
    return sorted({v for m, _ in f.val for v, _ in m})


def total_degree(f):
    context_of(f, MultiPolyRing, _NOT_MPOLY)
    if not f.val:
        return NEG_INF
    return max(_mono_degree(m) for m, _ in f.val)


def degree_in(f, var):
    context_of(f, MultiPolyRing, _NOT_MPOLY)
    if not f.val:
        return NEG_INF
    best = 0
    for m, _ in f.val:
        for v, e in m:
            if v == var:
                best = max(best, e)
    return best


def mv_eval(f, assignment):
    """Substitute a base element for every variable appearing in f."""
    ctx = context_of(f, MultiPolyRing, _NOT_MPOLY)
    base = ctx.base
    point = {v: payload_in(base, x) for v, x in assignment.items()}
    total = base.zero
    for m, c in f.val:
        term = c
        for v, e in m:
            if v not in point:
                raise MissingVariable(f"no value given for {v}")
            term = base.mul(term, ring_pow_payload(base, point[v], e))
        total = base.add(total, term)
    return Element(base, total)


def homogeneous_components(f):
    """Split f by total degree; keys are the degrees that occur."""
    ctx = context_of(f, MultiPolyRing, _NOT_MPOLY)
    buckets = {}
    for m, c in f.val:
        buckets.setdefault(_mono_degree(m), []).append((m, c))
    return {
        d: Element(ctx, ctx.canon(terms))
        for d, terms in sorted(buckets.items())
    }


def is_homogeneous(f):
    context_of(f, MultiPolyRing, _NOT_MPOLY)
    return len(homogeneous_components(f)) <= 1


def scaling_check(f, lam):
    """Test f(lam*X) == lam^d * f(X) as polynomials, d = total degree."""
    ctx = context_of(f, MultiPolyRing, _NOT_MPOLY)
    base = ctx.base
    lv = payload_in(base, lam)
    if not f.val:
        return True
    d = total_degree(f)
    lhs = ctx._seal((m, base.mul(ring_pow_payload(
        base, lv, _mono_degree(m)), c)) for m, c in f.val)
    lam_d = ring_pow_payload(base, lv, d)
    rhs = ctx.mul(ctx.lift(lam_d), f.val)
    return ctx.eq(lhs, rhs)


def homogenize(f, newvar):
    """Pad every term with powers of a fresh variable up to total degree."""
    ctx = context_of(f, MultiPolyRing, _NOT_MPOLY)
    if not f.val:
        raise ZeroPolynomial("cannot homogenize the zero polynomial")
    if newvar in variables_of(f):
        raise VariableCollision(f"{newvar} already occurs")
    _mono_canon(((newvar, 1),))
    d = total_degree(f)
    out = []
    for m, c in f.val:
        pad = d - _mono_degree(m)
        mono = _mono_mul(m, ((newvar, pad),)) if pad else m
        out.append((mono, c))
    return Element(ctx, ctx.canon(out))


def dehomogenize(f, var):
    """Substitute var = 1 by erasing it from every monomial."""
    ctx = context_of(f, MultiPolyRing, _NOT_MPOLY)
    out = []
    for m, c in f.val:
        mono = tuple((v, e) for v, e in m if v != var)
        out.append((mono, c))
    return Element(ctx, ctx.canon(out))
