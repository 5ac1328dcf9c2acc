"""Factorization and irreducibility certificates.

Everything here is exact and certificate-driven.  Integers factor by
Pollard's rho with Brent's cycle finding, one budget unit per step
under intutil's work budget; polynomials over a prime field by
distinct-degree factorization and Cantor-Zassenhaus splitting, in
polynomial time, both on tuples of ints mod p through the kernel of
F_p (poly.prime_kernel: powmod, divmod, gcd) rather than the ring
contexts, which over F_2 (poly.F2Kernel) runs them by shift-and-XOR on
one int per polynomial; elements of imaginary quadratic rings are tested by
exhausting the divisors allowed by the norm.  For Z[x] and Q[x], where
no complete factorization is attempted, irreducibility is reported as
a verdict carrying a checkable certificate (Eisenstein after a shift,
reduction mod p, a rational root, a trial divisor) or INCONCLUSIVE.
Their inner loops run on integer lists too: a shift x -> x + a is a
Taylor shift by synthetic division, and a rational root candidate s/q
is tested by the homogenised Horner sum q^n f(s/q) in integers.

Each function checks its input through one gate (_gate, or
algebra.context_of) with a fixed message.  verify_certificate replays
any certificate against the element it claims to describe, and answers
True or False for every verdict, so none has to be taken on faith.
"""

import itertools
import math
import random
from collections import Counter, namedtuple
from fractions import Fraction

from .algebra import Element, context_of, ring_pow_payload
from .errors import (
    ConstantPolynomial,
    DegreeDrops,
    DegreeOutOfRange,
    InvalidParameters,
    NotAField,
    NotPrimitive,
    ParseError,
    RingError,
    ZeroInput,
)
from .euclid import gcd_payload
from .intutil import (
    DEFAULT_PRIME_BOUND,
    DEFAULT_SHIFT_BOUND,
    divisors,
    factorize,
    is_prime,
    primes_up_to,
    within_budget,
)
from .number_rings import (
    QQ,
    ZZ,
    IntegerRing,
    ModRing,
    QuadIntRing,
    RationalField,
)
from .parsing import atomic_or_parenthesized
from .poly import PolyRing, derivative, divrem_scaled, horner, prime_kernel

REDUCTION_PRIME_COUNT = 10


# --------------------------------------------------------------- results

class Factorization(namedtuple("Factorization", "ctx unit factors")):
    """unit * prod(factor^multiplicity) with payload-level parts."""

    __slots__ = ()

    def value(self):
        acc = self.unit
        for f, m in self.factors:
            acc = self.ctx.mul(acc, ring_pow_payload(self.ctx, f, m))
        return Element(self.ctx, acc)

    def __str__(self):
        parts = []
        if not self.ctx.eq(self.unit, self.ctx.one) or not self.factors:
            parts.append(self._piece(self.unit, 1))
        for f, m in self.factors:
            parts.append(self._piece(f, m))
        return " * ".join(parts)

    def _piece(self, payload, mult):
        text = atomic_or_parenthesized(self.ctx.show(payload))
        return text if mult == 1 else f"{text}^{mult}"


class IrreducibilityVerdict(namedtuple(
        "IrreducibilityVerdict", "status cert data", defaults=(None, ()))):
    """IRREDUCIBLE / REDUCIBLE / INCONCLUSIVE plus its certificate."""

    __slots__ = ()

    def serialize(self):
        head = self.status.upper()
        if self.cert is None:
            return head
        parts = [f"cert={self.cert}"]
        parts.extend(f"{k}={v}" for k, v in self.data)
        return head + " " + " ".join(parts)

    def __str__(self):
        return self.serialize()

    @property
    def is_irreducible(self):
        return self.status == "irreducible"

    @property
    def is_reducible(self):
        return self.status == "reducible"

    @property
    def is_inconclusive(self):
        return self.status == "inconclusive"


def _irr(cert, **kv):
    return IrreducibilityVerdict(
        "irreducible", cert, tuple((k, str(v)) for k, v in kv.items()))


def _red(cert, **kv):
    return IrreducibilityVerdict(
        "reducible", cert, tuple((k, str(v)) for k, v in kv.items()))


INCONCLUSIVE = IrreducibilityVerdict("inconclusive")


# ------------------------------------------------------- context tests

def _ctx(x):
    """The context of an element; None for anything else."""
    return x.ctx if isinstance(x, Element) else None


def over_z(ctx):
    """Is ctx a polynomial ring over Z?"""
    return isinstance(ctx, PolyRing) and isinstance(ctx.base, IntegerRing)


def over_z_or_q(ctx):
    """Is ctx a polynomial ring over Z or Q?"""
    return isinstance(ctx, PolyRing) and isinstance(
        ctx.base, (IntegerRing, RationalField))


def has_irreducibility_test(ctx):
    """Is ctx, for irreducibility_pipeline, F_p[x], Z[x] or Q[x]?"""
    return prime_kernel(ctx) is not None or over_z_or_q(ctx)


def _gate(test, message):
    """The input check of the functions that take only elements whose
    context passes test: it returns f.ctx, else raises RingError(message)."""
    def check(f):
        if isinstance(f, Element) and test(f.ctx):
            return f.ctx
        raise RingError(message)
    return check


_fp_poly_ctx = _gate(prime_kernel, "expected a polynomial over a prime field")
_z_poly_ctx = _gate(over_z, "expected a polynomial with integer coefficients")
_zq_poly = _gate(over_z_or_q, "expected a polynomial over Z or Q")


# --------------------------------------------------------------- integers

def factor_integer(n):
    """The factorization of a nonzero integer: sign unit, ascending primes."""
    if isinstance(n, Element):
        if not isinstance(n.ctx, IntegerRing):
            raise RingError("factor_integer needs an integer")
        n = n.val
    if not isinstance(n, int):
        raise RingError(f"factor_integer needs an integer, got {n!r}")
    if n == 0:
        raise ZeroInput("0 has no factorization into primes")
    unit = -1 if n < 0 else 1
    return Factorization(ZZ, unit, tuple(factorize(abs(n))))


def squarefree_part_int(n):
    """Product of the primes dividing n to an odd power, positive."""
    return math.prod(p for p, e in factor_integer(n).factors if e % 2)


# ------------------------------------------------- prime-field polynomials

def _distinct_degree(ctx, f):
    """Distinct-degree factorization of a monic f over F_p.

    For d = 1, 2, ... yields (g, d) with g = gcd(rest, x^(p^d) - x), the
    product of the distinct irreducible factors of degree d, and divides
    it out of rest, again while factors of degree d remain: the j-th g of
    a degree holds its factors of multiplicity >= j.  The last rest, too
    small for two factors of degree above d, is irreducible.  f and the
    g are tuples of ints mod p; divisions use the kernel's Newton memo.
    """
    K = prime_kernel(ctx)
    p = K.n
    rest, h, d = f, (0, 1), 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = K.powmod(h, p, rest)
        g = K.gcd(rest, K.add(h, (0, p - 1)))  # h - x
        while len(g) > 1:
            yield g, d
            rest = tuple(K.divmod(rest, g)[0])
            g = K.gcd(rest, g)
    if len(rest) > 1:
        yield rest, len(rest) - 1


def _equal_degree_split(ctx, g, d):
    """Cantor-Zassenhaus (1981): the factors of g, a product of distinct
    monic irreducibles of degree d, split off by gcd(g, t) for random a,
    t = a^((p^d - 1)/2) - 1 for odd p and the trace a + a^2 + ... +
    a^(2^(d-1)) for p = 2.  Its random source is seeded from g."""
    if len(g) - 1 == d:
        return [g]
    K = prime_kernel(ctx)
    p = K.n
    rng = random.Random(repr(g))
    todo, out = [g], []
    while todo:
        g = todo.pop()
        if len(g) - 1 == d:
            out.append(g)
            continue
        h = ()
        while not 0 < len(h) - 1 < len(g) - 1:
            # trimmed by the sum
            a = K.add([rng.randrange(p) for _ in range(len(g) - 1)], ())
            if p == 2:
                t = s = a
                for _ in range(d - 1):
                    s = K.powmod(s, 2, g)
                    t = K.add(t, s)
            else:
                t = K.add(K.powmod(a, (p ** d - 1) // 2, g), (p - 1,))
            h = K.gcd(g, t)
        todo += [h, tuple(K.divmod(g, h)[0])]
    return out


def radical_fp(ctx, m):
    """The product of the distinct irreducible factors of a monic m over
    F_p: the first distinct-degree group of each degree, so no group is
    split."""
    out, last = ctx.one, None
    for g, d in _distinct_degree(ctx, m):
        if d != last:
            out = ctx.mul(out, g)
        last = d
    return out


def monic_irreducibles(p, maxdeg):
    """Monic irreducibles over F_p of degree 1..maxdeg, in factor order."""
    if not is_prime(p):
        raise InvalidParameters(f"{p} is not prime")
    if not isinstance(maxdeg, int) or maxdeg < 1:
        raise InvalidParameters(f"need a degree bound >= 1, got {maxdeg!r}")
    within_budget(p ** maxdeg, f"monic candidates over F_{p}")
    ctx = PolyRing(ModRing(p))
    monics = (Element(ctx, tail + (1,)) for d in range(1, maxdeg + 1)
              for tail in itertools.product(range(p), repeat=d))
    return [m for m in monics if poly_is_irreducible_fp(m)]


def _fp_monic(f):
    ctx = _fp_poly_ctx(f)
    if len(f.val) < 2:
        raise ConstantPolynomial("constants are not tested for divisors")
    return ctx, ctx.mul(ctx.canon_unit(f.val), f.val)


def _fp_divisor(f):
    """The least irreducible proper divisor, or None when f is irreducible."""
    ctx, monic = _fp_monic(f)
    g, d = next(_distinct_degree(ctx, monic))
    if d == len(monic) - 1:
        return None
    return min(_equal_degree_split(ctx, g, d))


def poly_is_irreducible_fp(f):
    """Rabin (1980): f is irreducible exactly when its first
    distinct-degree group is f itself."""
    ctx, monic = _fp_monic(f)
    return next(_distinct_degree(ctx, monic))[1] == len(monic) - 1


def factor_poly_fp(f):
    """Complete factorization over a prime field: monic factors ordered
    by degree, then by ascending coefficient tuple.  A factor's
    multiplicity is the number of distinct-degree groups it lies in."""
    ctx = _fp_poly_ctx(f)
    if not f.val:
        raise ZeroInput("0 has no factorization")
    unit = ctx.lift(f.val[-1])
    monic = ctx.mul(ctx.canon_unit(f.val), f.val)
    counts = Counter()
    for g, d in _distinct_degree(ctx, monic):
        counts.update(_equal_degree_split(ctx, g, d))
    factors = sorted(counts.items(), key=lambda he: (len(he[0]), he[0]))
    return Factorization(ctx, unit, tuple(factors))


# ----------------------------------------------------- Z[x] and Q[x] tools

def content(f):
    """Positive gcd of the integer coefficients; the zero poly is refused."""
    _z_poly_ctx(f)
    if not f.val:
        raise ZeroInput("the zero polynomial has no content")
    return math.gcd(*f.val)


def primitive_part(f):
    ctx = _z_poly_ctx(f)
    c = content(f)
    return Element(ctx, tuple(x // c for x in f.val))


def primitive_associate(f):
    """The primitive integer polynomial with positive lead, from Z or Q."""
    ctx = _zq_poly(f)
    if not f.val:
        raise ZeroInput("the zero polynomial has no primitive associate")
    if over_z(ctx):
        ints = list(f.val)
    else:
        scale = math.lcm(*(c.denominator for c in f.val))
        ints = [int(c * scale) for c in f.val]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return Element(PolyRing(ZZ), tuple(ints))


def rational_roots(f):
    """All rational roots, ascending, via the rational root theorem."""
    _zq_poly(f)
    if not f.val:
        raise ZeroInput("every rational is a root of the zero polynomial")
    if len(f.val) == 1:
        return []
    g = primitive_associate(f)
    coeffs = list(g.val)
    roots = set()
    if coeffs[0] == 0:
        roots.add(Fraction(0))
        while coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) > 1:
        ps, qs = divisors(coeffs[0]), divisors(coeffs[-1])
        within_budget(2 * len(ps) * len(qs) * len(coeffs), "Horner steps")
        for p in ps:
            for q in qs:
                if math.gcd(p, q) > 1:
                    continue  # a reduced pair gives the same candidate
                for s in (p, -p):
                    if _is_root(coeffs, s, q):
                        roots.add(Fraction(s, q))
    return sorted(roots)


def _is_root(coeffs, s, q):
    """Is s/q (q > 0) a root of the integer coefficients?  By Horner on
    the homogenised sum of c_k s^k q^(n-k) = q^n f(s/q), in integers."""
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * s + c * qk
        qk *= q
    return acc == 0


def low_degree_test(f):
    """Degree 2 and 3 over Z, Q or F_p: reducible over the field of
    fractions exactly when a root exists."""
    base = context_of(f, PolyRing, "expected a polynomial element").base
    deg = len(f.val) - 1
    if deg not in (2, 3):
        raise DegreeOutOfRange(
            f"root existence decides irreducibility only in degree 2 and 3, "
            f"got degree {deg}")
    if over_z_or_q(f.ctx):
        found = rational_roots(f)
    elif prime_kernel(f.ctx):
        from .poly import roots_over_finite

        found = roots_over_finite(f)
    else:
        raise NotAField(f"no root search implemented over {base.name()}")
    if found:
        return _red("rational-root", root=found[0])
    return _irr("low-degree-no-root")


def _shift_payload(coeffs, a):
    """The coefficients of f(x + a) over Z, by the Taylor shift of
    repeated synthetic division: n(n - 1)/2 multiply-adds on the n
    coefficients, which keeps the leading one."""
    c = list(coeffs)
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _eisenstein_holds(coeffs, p):
    if coeffs[-1] % p == 0:
        return False
    if any(c % p for c in coeffs[:-1]):
        return False
    return coeffs[0] % (p * p) != 0


def eisenstein_check(f, p):
    """Eisenstein's criterion at p, no shift."""
    _require_primitive(f, p)
    if _eisenstein_holds(f.val, p):
        return _irr("eisenstein", p=p, shift=0)
    return INCONCLUSIVE


def _require_primitive(f, p=None):
    """f primitive of degree >= 1 over Z, and p, when given, a prime."""
    _z_poly_ctx(f)
    if len(f.val) < 2:
        raise ConstantPolynomial("need degree at least 1")
    if content(f) != 1:
        raise NotPrimitive("coefficients share a common factor")
    if p is not None and not is_prime(p):
        raise InvalidParameters(f"{p} is not prime")


def eisenstein_translate_search(f, prime_bound=DEFAULT_PRIME_BOUND,
                                shift_bound=DEFAULT_SHIFT_BOUND):
    """Try Eisenstein on f(x+a) for a = 0, 1, -1, ... within the bounds.

    Candidate primes for each shift are the primes up to the bound that
    divide the shifted constant term; shifts with constant term 0 prove
    reducibility is possible only through other routes and are skipped.
    """
    _require_primitive(f)
    primes = primes_up_to(prime_bound)
    shifts = [0]
    for a in range(1, shift_bound + 1):
        shifts.extend((a, -a))
    for a in shifts:
        g = _shift_payload(f.val, a) if a else f.val
        if g[0] == 0:
            continue
        for p in primes:
            if g[0] % p == 0 and _eisenstein_holds(g, p):
                return _irr("eisenstein", p=p, shift=a)
    return INCONCLUSIVE


def reduction_mod_p_check(f, p):
    """Irreducibility transfer from F_p when the degree is preserved."""
    _require_primitive(f, p)
    if f.val[-1] % p == 0:
        raise DegreeDrops(f"{p} divides the leading coefficient")
    ctx = PolyRing(ModRing(p))
    g = Element(ctx, ctx.canon(f.val))
    if poly_is_irreducible_fp(g):
        return _irr("reduction", p=p)
    return INCONCLUSIVE


# ------------------------------------------------------------- squarefree

def squarefree_part(x):
    """The odd-multiplicity part: x = unit * square * squarefree_part.

    Integers get the product of their odd-power primes; polynomials over
    a prime field take it from their distinct-degree groups; over Q (or
    Z, mapped through Q) the decomposition comes from the gcd chain of f
    and f'.  Neither polynomial case splits a group into irreducibles.
    """
    if isinstance(x, int) or isinstance(_ctx(x), IntegerRing):
        return squarefree_part_int(x)
    context_of(x, PolyRing, "no squarefree decomposition for {!r}")
    if prime_kernel(x.ctx):
        return _squarefree_part_fp(x)
    if over_z_or_q(x.ctx):
        return _squarefree_part_q(x)
    raise RingError(f"no squarefree decomposition over {x.ctx.base.name()}")


def _squarefree_part_fp(f):
    """The j-th distinct-degree group of a degree holds the factors of
    multiplicity >= j, so the alternating product g1 / g2 * g3 / g4 ...
    over each degree keeps exactly the factors of odd multiplicity, and
    each division is exact."""
    ctx = f.ctx
    if not f.val:
        raise ZeroInput("0 has no factorization")
    out, last, j = ctx.one, None, 0
    for g, d in _distinct_degree(ctx, ctx.mul(ctx.canon_unit(f.val), f.val)):
        j = j + 1 if d == last else 1
        last = d
        out = ctx.mul(out, g) if j % 2 else ctx.divmod_(out, g)[0]
    return Element(ctx, out)


def _squarefree_decomposition_q(f):
    """Yun's gcd chain: monic f over Q as prod a_i^i with a_i squarefree."""
    qctx = PolyRing(QQ)
    coeffs = qctx.canon(f.val)
    if not coeffs:
        raise ZeroInput("the zero polynomial has no squarefree part")
    monic = qctx.mul(qctx.canon_unit(coeffs), coeffs)
    d_monic = derivative(Element(qctx, monic)).val
    g = gcd_payload(qctx, monic, d_monic)
    c = qctx.divmod_(monic, g)[0]
    d = qctx.sub(qctx.divmod_(d_monic, g)[0],
                 derivative(Element(qctx, c)).val)
    parts = []
    i = 1
    while len(c) - 1 > 0:
        a = gcd_payload(qctx, c, d)
        parts.append((a, i))
        c = qctx.divmod_(c, a)[0]
        d = qctx.sub(qctx.divmod_(d, a)[0], derivative(Element(qctx, c)).val)
        i += 1
    return qctx, parts


def _squarefree_part_q(f):
    qctx, parts = _squarefree_decomposition_q(f)
    out = qctx.one
    for a, i in parts:
        if i % 2:
            out = qctx.mul(out, a)
    result = Element(qctx, out)
    if over_z(f.ctx):
        return primitive_associate(result)
    return result


# ------------------------------------------------- imaginary quadratic

def quad_irreducible_check(x):
    """Irreducibility in Z[sqrt(d)], d < 0, by norm-divisor exhaustion."""
    ctx = context_of(x, QuadIntRing, "expected a quadratic integer")
    if ctx.d >= 0:
        raise InvalidParameters(
            "norm exhaustion needs an imaginary quadratic ring")
    n = ctx.norm(x.val)
    if n == 0:
        raise ZeroInput("0 is not tested for irreducibility")
    if n == 1:
        raise InvalidParameters("units are not tested for irreducibility")
    if is_prime(n):
        return _irr("prime-norm", n=n)
    d = abs(ctx.d)
    ts = divisors(n)[1:-1]
    within_budget(sum(math.isqrt(t // d) + 1 for t in ts),
                  f"norm-divisor scan steps for norm {n}")
    for t in ts:
        b = 0
        while d * b * b <= t:
            rest = t - d * b * b
            a = math.isqrt(rest)
            if a * a == rest:
                for cand in ((a, b), (a, -b)) if b else ((a, b),):
                    if cand == (0, 0):
                        continue
                    num = ctx.mul(x.val, ctx.conj(cand))
                    if num[0] % t == 0 and num[1] % t == 0:
                        return _red(
                            "trial-divisor", divisor=ctx.show(cand))
            b += 1
    return _irr("exhaustive")


# ------------------------------------------------------------ verification

def verify_certificate(f, verdict):
    """Replay a verdict's certificate against f: True when it holds,
    False when it does not, or when a field of it does not read or does
    not apply to f."""
    if not isinstance(verdict, IrreducibilityVerdict):
        raise InvalidParameters("expected an IrreducibilityVerdict")
    if verdict.is_inconclusive:
        return True
    try:
        return _replay(f, verdict, dict(verdict.data))
    except (ValueError, ParseError, RingError):
        return False


def _replay(f, verdict, data):
    kind = verdict.cert
    if verdict.is_irreducible and over_z(f.ctx) and content(f) > 1:
        return False  # the content is a non-unit factor in Z[x]
    if kind == "eisenstein":
        g = primitive_associate(f)
        p = int(data["p"])
        a = int(data["shift"])
        if not is_prime(p):
            return False
        coeffs = _shift_payload(g.val, a) if a else g.val
        return verdict.is_irreducible and _eisenstein_holds(coeffs, p)
    if kind == "reduction":
        g = primitive_associate(f)
        return verdict.is_irreducible and reduction_mod_p_check(
            g, int(data["p"])).is_irreducible
    if kind == "rational-root":
        if not verdict.is_reducible or len(f.val) - 1 < 2:
            return False
        base = f.ctx.base
        if over_z_or_q(f.ctx):
            return horner(QQ, f.val, Fraction(data["root"])) == 0
        return base.is_zero(horner(base, f.val, base.parse(data["root"])))
    if kind == "low-degree-no-root":
        return verdict.is_irreducible and low_degree_test(
            f).serialize() == verdict.serialize()
    if kind == "trial-divisor":
        if not verdict.is_reducible:
            return False
        ctx = f.ctx
        g = ctx.parse(data["divisor"])
        if isinstance(ctx, PolyRing):
            base = ctx.base
            if len(g) == 1 < len(f.val):
                # a non-unit constant that divides every coefficient
                return base.is_domain and not base.is_unit(g[0]) and all(
                    base.is_zero(base.divmod_(c, g[0])[1]) for c in f.val)
            if not 1 <= len(g) - 1 < len(f.val) - 1:
                return False
            # lc(g)^m f = q g + r, so r = 0 shows g | f over a domain's
            # fractions, Z included, where divmod_ needs a field
            return base.is_domain and not divrem_scaled(
                f, Element(ctx, g))[2].val
        if isinstance(ctx, QuadIntRing):
            t = ctx.norm(g)
            n = ctx.norm(f.val)
            if not 1 < abs(t) < abs(n):
                return False
            num = ctx.mul(f.val, ctx.conj(g))
            return num[0] % t == 0 and num[1] % t == 0
        return False
    if kind == "prime-norm":
        if not isinstance(f.ctx, QuadIntRing):
            return False
        return verdict.is_irreducible and is_prime(
            f.ctx.norm(f.val)) and str(f.ctx.norm(f.val)) == data["n"]
    if kind == "exhaustive":
        if isinstance(f.ctx, QuadIntRing):
            return quad_irreducible_check(f).serialize() == \
                verdict.serialize()
        if isinstance(f.ctx, PolyRing):
            if prime_kernel(f.ctx):
                return verdict.is_irreducible and poly_is_irreducible_fp(f)
            return verdict.is_irreducible and len(f.val) - 1 == 1
        return False
    raise InvalidParameters(f"unknown certificate kind {kind!r}")


# ------------------------------------------------------------- pipeline

def irreducibility_pipeline(f, prime_bound=DEFAULT_PRIME_BOUND,
                            shift_bound=DEFAULT_SHIFT_BOUND):
    """Best-effort verdict for Q[x]/Z[x], F_p[x], or quadratic integers.

    Over Q the stages are: primitive associate, rational roots, degree
    screen, Eisenstein with shifts, reduction mod small primes; anything
    that survives is INCONCLUSIVE.  Over Z a content c > 1 decides after
    the roots, as a trial divisor.  Over F_p Rabin's test and over
    imaginary quadratic rings norm exhaustion decide outright.
    """
    if isinstance(_ctx(f), QuadIntRing):
        return quad_irreducible_check(f)
    context_of(f, PolyRing, "no irreducibility test for {!r}")
    if not has_irreducibility_test(f.ctx):
        raise RingError(f"no irreducibility test over {f.ctx.base.name()}")
    if prime_kernel(f.ctx):
        deg = len(f.val) - 1
        if deg < 1:
            raise ConstantPolynomial("constants are not tested")
        g = _fp_divisor(f)
        if g is None:
            return _irr("exhaustive")
        return _red("trial-divisor", divisor=f.ctx.show(g))
    prim = primitive_associate(f)
    deg = len(prim.val) - 1
    if deg < 1:
        raise ConstantPolynomial("constants are not tested")
    roots = rational_roots(prim) if deg > 1 else []
    if roots:
        return _red("rational-root", root=roots[0])
    if over_z(f.ctx) and content(f) > 1:
        return _red("trial-divisor", divisor=str(content(f)))
    if deg == 1:
        return _irr("exhaustive")
    if deg in (2, 3):  # as low_degree_test(prim), whose roots are above
        return _irr("low-degree-no-root")
    verdict = eisenstein_translate_search(prim, prime_bound, shift_bound)
    if not verdict.is_inconclusive:
        return verdict
    primes = filter(is_prime, itertools.count(2))
    for p in itertools.islice(primes, REDUCTION_PRIME_COUNT):
        if prim.val[-1] % p:
            v = reduction_mod_p_check(prim, p)
            if v.is_irreducible:
                return v
    return INCONCLUSIVE
