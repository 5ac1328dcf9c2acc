"""Euclidean algorithm, Bezout certificates, and Chinese remaindering.

These run in any context with division-with-remainder: the integers,
polynomials over a field, the Gaussian integers, and (trivially) fields.
Results are canonicalized through the context's canon_unit so gcds are
unique representatives: nonnegative in Z, monic for polynomials, in the
first quadrant for Gaussian integers, with gcd(0, 0) = 0.

gcd_payload and xgcd_payload run the remainder loop through the context's
divmod_.  A context whose euclid_kernel() is not None hands its payloads
to that kernel's gcd / xgcd instead, with the same g, x and y: Z runs
the loop below on plain ints; a polynomial ring over F_p, Quot(Z, p) or
F_p[y]/(m) a field runs the same remainder sequence on coefficient
lists, by half-gcd on long operands, or for p = 2 on one int per
polynomial (gf2.py), and Q[x] the primitive pseudo-remainder sequence
on integer numerators (poly.py).

The CRT solver follows the idempotent recipe: for pairwise comaximal
moduli m_1..m_r with canonical product M, one Bezout relation
x*m_k + y*r = g per modulus, with r = (M/m_k) mod m_k, gives
e_k = y*(M/m_k)/g mod M, which is 1 mod m_k and 0 mod every other m_j,
and x = sum b_k e_k solves the whole system modulo M.  A g that is not
a unit sends the moduli to the pairwise gcd scan of are_comaximal,
which names the first pair that shares a factor.
"""

from collections import namedtuple
from itertools import combinations

from .algebra import Element
from .errors import (
    ContextMismatch,
    ContextNotEuclidean,
    EmptySystem,
    InvalidParameters,
    NotComaximal,
    RingError,
)


def gcd_payload(ctx, a, b):
    K = ctx.euclid_kernel()
    if K is not None:
        return K.gcd(a, b)
    while not ctx.is_zero(b):
        a, b = b, ctx.divmod_(a, b)[1]
    return ctx.mul(ctx.canon_unit(a), a)


def xgcd_payload(ctx, a, b):
    K = ctx.euclid_kernel()
    if K is not None:
        return K.xgcd(a, b)
    r0, r1 = a, b
    s0, s1 = ctx.one, ctx.zero
    t0, t1 = ctx.zero, ctx.one
    while not ctx.is_zero(r1):
        q, r = ctx.divmod_(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, ctx.sub(s0, ctx.mul(q, s1))
        t0, t1 = t1, ctx.sub(t0, ctx.mul(q, t1))
    u = ctx.canon_unit(r0)
    return ctx.mul(u, r0), ctx.mul(u, s0), ctx.mul(u, t0)


def _shared_euclidean_ctx(*elems):
    if not elems:  # only the CRT passes no element
        raise EmptySystem("no congruences given")
    ctx = elems[0].ctx
    for e in elems[1:]:
        if e.ctx != ctx:
            raise ContextMismatch(f"{ctx.name()} vs {e.ctx.name()}")
    if not ctx.is_euclidean:
        raise ContextNotEuclidean(f"{ctx.name()} has no Euclidean division")
    return ctx


class BezoutCert(namedtuple("BezoutCert", "g x y")):
    """gcd g together with cofactors: a*x + b*y = g, re-checkable."""

    __slots__ = ()

    def check(self, a, b):
        return a * self.x + b * self.y == self.g


def euclid_gcd(a, b):
    ctx = _shared_euclidean_ctx(a, b)
    return Element(ctx, gcd_payload(ctx, a.val, b.val))


def extended_gcd(a, b):
    ctx = _shared_euclidean_ctx(a, b)
    g, x, y = xgcd_payload(ctx, a.val, b.val)
    cert = BezoutCert(Element(ctx, g), Element(ctx, x), Element(ctx, y))
    if not cert.check(a, b):
        raise RingError("Bezout identity failed to verify")
    return cert


def gcd_many(first, *rest):
    g = first
    ctx = _shared_euclidean_ctx(first, *rest)
    g = Element(ctx, ctx.mul(ctx.canon_unit(g.val), g.val))
    for e in rest:
        g = Element(ctx, gcd_payload(ctx, g.val, e.val))
    return g


def lcm(a, b):
    ctx = _shared_euclidean_ctx(a, b)
    if ctx.is_zero(a.val) and ctx.is_zero(b.val):
        raise InvalidParameters("lcm(0, 0) is not defined")
    if ctx.is_zero(a.val) or ctx.is_zero(b.val):
        return Element(ctx, ctx.zero)
    g = gcd_payload(ctx, a.val, b.val)
    m = ctx.divmod_(ctx.mul(a.val, b.val), g)[0]
    return Element(ctx, ctx.mul(ctx.canon_unit(m), m))


def _shared_factor(ctx, vals):
    """The first pair i < j of the payloads whose gcd is not a unit, with
    that gcd; None when they are pairwise comaximal."""
    for i, j in combinations(range(len(vals)), 2):
        g = gcd_payload(ctx, vals[i], vals[j])
        if not ctx.is_unit(g):
            return i, j, g
    return None


def are_comaximal(elems):
    """Pairwise: do each two of these generate the unit ideal?"""
    elems = list(elems)
    if len(elems) < 2:
        return True
    ctx = _shared_euclidean_ctx(*elems)
    return _shared_factor(ctx, [e.val for e in elems]) is None


def _crt_basis(moduli):
    """The context, the canonical product M of the moduli and their
    idempotents reduced mod M, from one Bezout relation per modulus."""
    ctx = _shared_euclidean_ctx(*moduli)
    vals = [m.val for m in moduli]
    big = ctx.one
    for m in moduli:
        if ctx.is_zero(m.val) or ctx.is_unit(m.val):
            raise InvalidParameters(
                f"modulus {m!r} must be a nonzero non-unit")
        big = ctx.mul(big, m.val)
    big = ctx.mul(ctx.canon_unit(big), big)
    idems = []
    for m in vals:
        cof = ctx.divmod_(big, m)[0]
        g, _, y = xgcd_payload(ctx, m, ctx.divmod_(cof, m)[1])
        u = ctx.try_inverse(g)
        if u is None:
            i, j, g = _shared_factor(ctx, vals)
            raise NotComaximal(
                f"moduli {moduli[i]!r} and {moduli[j]!r} share the "
                f"factor {ctx.show(g)}", i=i, j=j, gcd=Element(ctx, g))
        idems.append(ctx.divmod_(ctx.mul(ctx.mul(y, cof), u), big)[1])
    return ctx, big, idems


def crt_idempotents(moduli):
    """Elements e_k = 1 mod m_k and = 0 mod m_j (j != k), reduced mod prod."""
    ctx, _, idems = _crt_basis(list(moduli))
    return [Element(ctx, e) for e in idems]


def crt_solve(congruences):
    """Solve x = b_k mod m_k for comaximal moduli; returns (x, modulus)."""
    congruences = list(congruences)
    residues = [b for b, _ in congruences]
    moduli = [m for _, m in congruences]
    ctx = _shared_euclidean_ctx(*residues, *moduli)
    _, big, idems = _crt_basis(moduli)
    x = ctx.zero
    for b, e in zip(residues, idems):
        x = ctx.add(x, ctx.mul(b.val, e))
    return Element(ctx, ctx.divmod_(x, big)[1]), Element(ctx, big)
