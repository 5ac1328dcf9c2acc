"""Factorization and irreducibility certificates.

Everything here is exact and certificate-driven.  Integers factor by
Pollard's rho with Brent's cycle finding, one budget unit per step
under intutil's work budget (factor_integer and Factorization live
beside ZZ in number_rings, so factoring an integer loads no polynomial
code; this module re-exports them); polynomials over a prime field by
distinct-degree factorization and Cantor-Zassenhaus splitting, in
polynomial time, both on tuples of ints mod p through F_p's kernel
record (poly.prime_kernel: powmod, divmod, gcd) rather than the ring
contexts, which over F_2 (gf2.F2Kernel) runs them by shift-and-XOR on
one int per polynomial; elements of imaginary quadratic rings are tested
by exhausting the divisors allowed by the norm.  For Z[x] and Q[x], where
no complete factorization is attempted, irreducibility is reported as
a verdict carrying a checkable certificate (Eisenstein after a shift,
reduction mod p, a rational root, a trial divisor) or INCONCLUSIVE.
Their inner loops run on integer lists too: a shift x -> x + a is a
Taylor shift by synthetic division, and a rational root candidate s/q
is tested by the homogenised Horner sum q^n f(s/q) in integers.  One
squarefree decomposition, _levels, gives the multiplicity levels of a
polynomial over F_p or a field of characteristic 0 without splitting a
factor: radical (which PolyRing.radical answers with) is the first
level, squarefree_part the alternating fold of them all.

Which of these rings a context is comes from hooks it answers, not
from its type (see "ring families" below), and each function checks its
input through one gate with a fixed message.  irreducibility_pipeline
gives the order of its stages and its rule for a stage over the work
budget.  verify_certificate replays any certificate against the element
it claims to describe, and answers True or False for every verdict, so
none has to be taken on faith.
"""

import functools
import itertools
import math
import random
from collections import Counter, namedtuple
from fractions import Fraction

from .algebra import Element, context_of
from .errors import (
    ConstantPolynomial,
    DegreeDrops,
    DegreeOutOfRange,
    InvalidParameters,
    NotAField,
    NotPrimitive,
    ParseError,
    RingError,
    TooLarge,
    ZeroInput,
)
from .euclid import gcd_payload
from .intutil import (
    DEFAULT_PRIME_BOUND,
    DEFAULT_SHIFT_BOUND,
    divisors,
    is_prime,
    primes_up_to,
    within_budget,
)
from .number_rings import (
    QQ,
    ZZ,
    Factorization,
    ModRing,
    QuadIntRing,
    factor_integer,
)
from .poly import PolyRing, derivative, divrem_scaled, horner, prime_kernel

REDUCTION_PRIME_COUNT = 10
_ZX = PolyRing(ZZ)  # where primitive associates live


# --------------------------------------------------------------- results

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

    __str__ = serialize

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


# ---------------------------------------------------------- ring families
#
# F_p[x] is the polynomial ring whose Euclid kernel is F_p's own record
# (poly.prime_kernel).  Z[x] and Q[x] are the polynomial rings of
# characteristic 0 whose base has a kernel() record, Z's IntKernel(0) or
# Q's RatKernel; base.is_field tells Q from Z.  Past a context_of gate on
# (PolyRing, QuadIntRing), the context that answers norm is Z[sqrt d].

def _zq(ctx):
    """Is ctx, a polynomial ring, Z[x] or Q[x]?"""
    base = ctx.base
    return base.characteristic() == 0 and base.kernel() is not None


def has_irreducibility_test(ctx):
    """Is ctx, a polynomial ring, F_p[x], Z[x] or Q[x]?"""
    return prime_kernel(ctx) is not None or _zq(ctx)


def _fp_kernel(f):
    """F_p's kernel record when f is in F_p[x], else RingError."""
    K = prime_kernel(f.ctx) if isinstance(f, Element) else None
    if K is None:
        raise RingError("expected a polynomial over a prime field")
    return K


def _zq_poly(f, z_only=False):
    """f's ring when it is Z[x] or Q[x] (Z[x] alone when z_only), else
    RingError."""
    message = ("expected a polynomial with integer coefficients" if z_only
               else "expected a polynomial over Z or Q")
    ctx = context_of(f, PolyRing, message)
    if not _zq(ctx) or z_only and ctx.base.is_field:
        raise RingError(message)
    return ctx


# --------------------------------------------------------------- integers

def squarefree_part_int(n):
    """Product of the primes dividing n to an odd power, positive."""
    return math.prod(p for p, e in factor_integer(n).factors if e % 2)


# ------------------------------------------------- prime-field polynomials

def _distinct_degree(K, f):
    """Distinct-degree factorization of a monic f over F_p, on F_p's
    kernel record K.

    For d = 1, 2, ... yields (g, d) with g = gcd(rest, x^(p^d) - x), the
    product of the distinct irreducible factors of degree d, and divides
    it out of rest, again while factors of degree d remain: the j-th g of
    a degree holds its factors of multiplicity >= j.  The last rest, too
    small for two factors of degree above d, is irreducible.  f and the
    g are tuples of ints mod p; divisions use the kernel's Newton memo.
    """
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


def _equal_degree_split(K, g, d):
    """Cantor-Zassenhaus (1981), on F_p's kernel record K: the factors of
    g, a product of distinct monic irreducibles of degree d, split off by
    gcd(g, t) for random a, t = a^((p^d - 1)/2) - 1 for odd p and the
    trace a + a^2 + ... + a^(2^(d-1)) for p = 2.  Its random source is
    seeded from g."""
    if len(g) - 1 == d:
        return [g]
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
    """(F_p's kernel record, f made monic) for a nonconstant f in F_p[x]."""
    K = _fp_kernel(f)
    if len(f.val) < 2:
        raise ConstantPolynomial("constants are not tested")
    return K, f.ctx.mul(f.ctx.canon_unit(f.val), f.val)


def _fp_divisor(f):
    """The least irreducible proper divisor, or None when f is irreducible."""
    K, monic = _fp_monic(f)
    g, d = next(_distinct_degree(K, monic))
    if d == len(monic) - 1:
        return None
    return min(_equal_degree_split(K, g, d))


def poly_is_irreducible_fp(f):
    """Rabin (1980): f is irreducible exactly when its first
    distinct-degree group is f itself."""
    K, monic = _fp_monic(f)
    return next(_distinct_degree(K, monic))[1] == len(monic) - 1


def factor_poly_fp(f):
    """Complete factorization over a prime field: monic factors ordered
    by degree, then by ascending coefficient tuple.  A factor's
    multiplicity is the number of distinct-degree groups it lies in."""
    K, ctx = _fp_kernel(f), f.ctx
    if not f.val:
        raise ZeroInput("0 has no factorization")
    unit = ctx.lift(f.val[-1])
    monic = ctx.mul(ctx.canon_unit(f.val), f.val)
    counts = Counter()
    for g, d in _distinct_degree(K, monic):
        counts.update(_equal_degree_split(K, g, d))
    factors = sorted(counts.items(), key=lambda he: (len(he[0]), he[0]))
    return Factorization(ctx, unit, tuple(factors))


# ----------------------------------------------------- Z[x] and Q[x] tools

def content(f):
    """Positive gcd of the integer coefficients; the zero poly is refused."""
    _zq_poly(f, z_only=True)
    if not f.val:
        raise ZeroInput("the zero polynomial has no content")
    return math.gcd(*f.val)


def primitive_part(f):
    c = content(f)
    return Element(f.ctx, tuple(x // c for x in f.val))


def primitive_associate(f):
    """The primitive integer polynomial with positive lead, from Z or Q."""
    return Element(_ZX, _primitive_ints(_zq_poly(f), f.val))


def _primitive_ints(ctx, coeffs):
    """primitive_associate's coefficients from those of Z[x] or Q[x]."""
    if not coeffs:
        raise ZeroInput("the zero polynomial has no primitive associate")
    if ctx.base.is_field:
        scale = math.lcm(*[c.denominator for c in coeffs])
        coeffs = [c.numerator * (scale // c.denominator) for c in coeffs]
    g = math.gcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    return tuple(coeffs) if g == 1 else tuple([c // g for c in coeffs])


def rational_roots(f):
    """All rational roots, ascending, via the rational root theorem."""
    ctx = _zq_poly(f)
    if not f.val:
        raise ZeroInput("every rational is a root of the zero polynomial")
    coeffs = list(_primitive_ints(ctx, f.val))
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
    ctx = context_of(f, PolyRing, "expected a polynomial element")
    deg = len(f.val) - 1
    if deg not in (2, 3):
        raise DegreeOutOfRange(
            f"root existence decides irreducibility only in degree 2 and 3, "
            f"got degree {deg}")
    if prime_kernel(ctx):
        from .poly import roots_over_finite

        found = roots_over_finite(f)
    elif _zq(ctx):
        if not ctx.base.is_field and content(f) > 1:
            raise NotPrimitive("coefficients share a common factor")
        found = rational_roots(f)
    else:
        raise NotAField(f"no root search implemented over {ctx.base.name()}")
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
    _zq_poly(f, z_only=True)
    if len(f.val) < 2:
        raise ConstantPolynomial("need degree at least 1")
    if math.gcd(*f.val) != 1:
        raise NotPrimitive("coefficients share a common factor")
    if p is not None and not is_prime(p):
        raise InvalidParameters(f"{p} is not prime")


def eisenstein_translate_search(f, prime_bound=DEFAULT_PRIME_BOUND,
                                shift_bound=DEFAULT_SHIFT_BOUND):
    """Try Eisenstein on f(x+a) for a = 0, 1, -1, ... within the bounds.

    Candidate primes for each shift are the primes up to the bound that
    divide the shifted constant term; shifts with constant term 0 prove
    reducibility is possible only through other routes and are skipped.
    Once shift 0 fails, the other 2 * shift_bound are priced against the
    work budget at n(n - 1)/2 steps each on n coefficients (_shift_payload).
    """
    _require_primitive(f)
    primes = primes_up_to(prime_bound)
    n = len(f.val)
    shifts = itertools.chain.from_iterable(
        (a, -a) for a in range(1, shift_bound + 1))
    for a in itertools.chain((0,), shifts):
        if a == 1:  # shift 0 has failed
            within_budget(shift_bound * n * (n - 1), "Taylor-shift steps")
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

def _levels(ctx, f):
    """The levels g1, g2, ... of a monic f over F_p or a field of
    characteristic 0: gj is the product of the distinct irreducible
    factors of multiplicity >= j, none split.  Over F_p gj is the
    product of the j-th distinct-degree group of each degree.  In
    characteristic 0, on the context's own gcd and division, u = gcd(f,
    f') gives g1 = f / u, and each gcd(u, gj) takes the factors of least
    multiplicity off gj while u loses a power of each factor left
    (Musser 1971; Yun 1976 carries f' along to shrink each gcd)."""
    K = prime_kernel(ctx)
    if K:
        groups = {}
        for g, d in _distinct_degree(K, f):
            groups.setdefault(d, []).append(g)
        for level in itertools.zip_longest(*groups.values()):
            yield functools.reduce(ctx.mul, filter(None, level))  # None pads
        return
    u = gcd_payload(ctx, f, derivative(Element(ctx, f)).val)
    g = ctx.divmod_(f, u)[0]
    while len(g) > 1:
        yield g
        g = gcd_payload(ctx, u, g)
        u = ctx.divmod_(u, g)[0]


def radical(ctx, m):
    """The product of the distinct prime factors of a monic m of degree
    >= 1 in the polynomial ring ctx: its first level over F_p or a field
    of characteristic 0, else None (RingContext.radical's contract), Z[x]
    among them."""
    if prime_kernel(ctx) or ctx.base.is_field and ctx.characteristic() == 0:
        return next(_levels(ctx, m))
    return None


def squarefree_part(x):
    """The odd-multiplicity part: x = unit * square * squarefree_part.

    Integers get the product of their odd-power primes.  A polynomial
    over F_p or Q, made monic, gets the alternating fold g1 / g2 * g3 /
    g4 ... of its levels (_levels): each gj / gj+1 is exact and holds the
    factors of multiplicity j, so no factor is split into irreducibles.
    Over Z the fold runs in Q[x], and the part is its primitive associate
    times the squarefree part of the content.
    """
    if isinstance(x, int) or isinstance(x, Element) and x.ctx == ZZ:
        return squarefree_part_int(x)
    ctx = context_of(x, PolyRing, "no squarefree decomposition for {!r}")
    if not has_irreducibility_test(ctx):
        raise RingError(f"no squarefree decomposition over {ctx.base.name()}")
    if not x.val:
        raise ZeroInput("the zero polynomial has no squarefree part")
    F = ctx if ctx.base.is_field else PolyRing(QQ)
    f = F.canon(x.val)
    levels = _levels(F, F.mul(F.canon_unit(f), f))
    part = F.one
    for g in levels:  # an odd level, then the next one
        part = F.mul(part, F.divmod_(g, next(levels, F.one))[0])
    if F is ctx:
        return Element(ctx, part)
    c = squarefree_part_int(math.gcd(*x.val))
    return Element(ctx, tuple(c * a for a in _primitive_ints(F, part)))


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
    # a root or a divisor shows reducibility, every other kind the reverse
    reducing = verdict.cert in ("rational-root", "trial-divisor")
    if verdict.status != ("reducible" if reducing else "irreducible"):
        return False
    ctx = context_of(f, (PolyRing, QuadIntRing), "no certificate for {!r}")
    if hasattr(ctx, "norm"):
        return _replay_quadratic(f, ctx, verdict, data)
    return _replay_polynomial(f, ctx, verdict, data)


def _replay_polynomial(f, ctx, verdict, data):
    base, kind, zq = ctx.base, verdict.cert, _zq(ctx)
    if verdict.is_irreducible and zq and not base.is_field and content(f) > 1:
        return False  # the content is a non-unit factor in Z[x]
    if kind == "eisenstein":
        p, a = int(data["p"]), int(data["shift"])
        g = _shift_payload(primitive_associate(f).val, a)
        return is_prime(p) and _eisenstein_holds(g, p)
    if kind == "reduction":
        return reduction_mod_p_check(
            primitive_associate(f), int(data["p"])).is_irreducible
    if kind == "rational-root":
        if len(f.val) - 1 < 2:
            return False
        if zq:
            return horner(QQ, f.val, Fraction(data["root"])) == 0
        return base.is_zero(horner(base, f.val, base.parse(data["root"])))
    if kind == "low-degree-no-root":
        return low_degree_test(f).serialize() == verdict.serialize()
    if kind == "trial-divisor":
        g = ctx.parse(data["divisor"])
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
    if kind == "exhaustive":
        if prime_kernel(ctx):
            return poly_is_irreducible_fp(f)
        return len(f.val) - 1 == 1
    return False


def _replay_quadratic(f, ctx, verdict, data):
    kind = verdict.cert
    if kind == "trial-divisor":
        g = ctx.parse(data["divisor"])
        t = ctx.norm(g)
        if not 1 < abs(t) < abs(ctx.norm(f.val)):
            return False
        num = ctx.mul(f.val, ctx.conj(g))
        return num[0] % t == 0 and num[1] % t == 0
    if kind == "prime-norm":
        n = ctx.norm(f.val)
        return is_prime(n) and str(n) == data["n"]
    if kind == "exhaustive":
        return quad_irreducible_check(f).serialize() == verdict.serialize()
    return False


# ------------------------------------------------------------- pipeline

def irreducibility_pipeline(f, prime_bound=DEFAULT_PRIME_BOUND,
                            shift_bound=DEFAULT_SHIFT_BOUND):
    """Best-effort verdict for Q[x]/Z[x], F_p[x], or quadratic integers.

    Over F_p Rabin's test and over imaginary quadratic rings norm
    exhaustion decide outright.  Over Z and Q the stages run on the
    primitive associate, in this order: rational roots; over Z, a content
    c > 1, as a trial divisor; the degree screen (degree 2 and 3 only
    after a finished root search); Eisenstein with shifts; reduction mod
    small primes.  A stage over the work budget passes the polynomial on
    to the next.  When no stage decides, the first refusal is raised, or
    else the verdict is INCONCLUSIVE.
    """
    ctx = context_of(f, (PolyRing, QuadIntRing),
                     "no irreducibility test for {!r}")
    if hasattr(ctx, "norm"):
        return quad_irreducible_check(f)
    if prime_kernel(ctx):
        g = _fp_divisor(f)
        if g is None:
            return _irr("exhaustive")
        return _red("trial-divisor", divisor=ctx.show(g))
    if not _zq(ctx):
        raise RingError(f"no irreducibility test over {ctx.base.name()}")
    prim = Element(_ZX, _primitive_ints(ctx, f.val))
    deg = len(prim.val) - 1
    if deg < 1:
        raise ConstantPolynomial("constants are not tested")
    refusal = None
    try:
        roots = rational_roots(prim) if deg > 1 else []
    except TooLarge as over:
        roots, refusal = None, over
    if roots:
        return _red("rational-root", root=roots[0])
    if not ctx.base.is_field and math.gcd(*f.val) > 1:
        return _red("trial-divisor", divisor=math.gcd(*f.val))
    if deg == 1:
        return _irr("exhaustive")
    if deg in (2, 3) and roots is not None:  # as low_degree_test(prim)
        return _irr("low-degree-no-root")
    try:
        verdict = eisenstein_translate_search(prim, prime_bound, shift_bound)
    except TooLarge as over:
        verdict, refusal = INCONCLUSIVE, refusal or over
    if not verdict.is_inconclusive:
        return verdict
    primes = filter(is_prime, itertools.count(2))
    for p in itertools.islice(primes, REDUCTION_PRIME_COUNT):
        if prim.val[-1] % p:
            v = reduction_mod_p_check(prim, p)
            if v.is_irreducible:
                return v
    if refusal:
        raise refusal
    return INCONCLUSIVE
