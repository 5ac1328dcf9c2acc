"""Euclidean algorithm, Bezout certificates, and Chinese remaindering.

These run in any context with division-with-remainder: the integers,
polynomials over a field, the Gaussian integers, and (trivially) fields.
Results are canonicalized through the context's canon_unit so gcds are
unique representatives: nonnegative in Z, monic for polynomials, in the
first quadrant for Gaussian integers, with gcd(0, 0) = 0.

gcd_payload and xgcd_payload run the remainder loop through the context's
divmod_.  A context whose euclid_kernel() is not None (a polynomial ring
over F_p, Quot(Z, p) or F_p[y]/(m) a field) hands its payloads to that
kernel's gcd / xgcd instead: the same remainder sequence on coefficient
lists, by half-gcd on long operands (poly.py), with the same g, x and y.

The CRT solver follows the idempotent recipe: for pairwise comaximal
moduli m_1..m_r, each Bezout relation 1 = x*m_k + y*m_j yields
t_j = y*m_j congruent to 1 mod m_k and 0 mod m_j; the product over
j != k is an idempotent e_k picking out the k-th congruence, and
x = sum b_k e_k solves the whole system modulo the product.
"""

from collections import namedtuple

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


def are_comaximal(elems):
    """Pairwise: do each two of these generate the unit ideal?"""
    elems = list(elems)
    if len(elems) > 1:
        _shared_euclidean_ctx(*elems)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            g = euclid_gcd(elems[i], elems[j])
            if not g.is_unit():
                return False
    return True


def _validated_moduli(moduli):
    if not moduli:
        raise EmptySystem("no congruences given")
    ctx = _shared_euclidean_ctx(*moduli)
    for m in moduli:
        if ctx.is_zero(m.val) or ctx.is_unit(m.val):
            raise InvalidParameters(
                f"modulus {m!r} must be a nonzero non-unit")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            g = gcd_payload(ctx, moduli[i].val, moduli[j].val)
            if ctx.try_inverse(g) is None:
                raise NotComaximal(
                    f"moduli {moduli[i]!r} and {moduli[j]!r} share the "
                    f"factor {ctx.show(g)}", i=i, j=j,
                    gcd=Element(ctx, g))
    return ctx


def _modulus_product(ctx, moduli):
    """The canonical associate of the product of the moduli."""
    big = ctx.one
    for m in moduli:
        big = ctx.mul(big, m.val)
    return ctx.mul(ctx.canon_unit(big), big)


def crt_idempotents(moduli):
    """Elements e_k = 1 mod m_k and = 0 mod m_j (j != k), reduced mod prod."""
    moduli = list(moduli)
    ctx = _validated_moduli(moduli)
    big = _modulus_product(ctx, moduli)
    out = []
    for k, mk in enumerate(moduli):
        e = ctx.one
        for j, mj in enumerate(moduli):
            if j == k:
                continue
            g, _, y = xgcd_payload(ctx, mk.val, mj.val)
            u = ctx.inverse(g)
            t = ctx.mul(ctx.mul(y, mj.val), u)
            e = ctx.divmod_(ctx.mul(e, t), big)[1]
        out.append(Element(ctx, e))
    return out


def crt_solve(congruences):
    """Solve x = b_k mod m_k for comaximal moduli; returns (x, modulus)."""
    congruences = list(congruences)
    if not congruences:
        raise EmptySystem("no congruences given")
    residues = [b for b, _ in congruences]
    moduli = [m for _, m in congruences]
    ctx = _shared_euclidean_ctx(*residues, *moduli)
    idems = crt_idempotents(moduli)
    big = _modulus_product(ctx, moduli)
    x = ctx.zero
    for b, e in zip(residues, idems):
        x = ctx.add(x, ctx.mul(b.val, e.val))
    x = ctx.divmod_(x, big)[1]
    return Element(ctx, x), Element(ctx, big)
