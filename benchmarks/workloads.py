"""The dense and exhaustive workloads: seeded inputs, operations, checks.

A workload is a list of operation classes.  Each class has a count (how
many operations of it one round holds), a generator that draws one
operation's raw inputs from the seeded RNG without touching ringkit,
and a make function that turns those inputs into ringkit elements and
returns

    (call, extract, check)

where call() makes one timed call into ringkit's public API,
extract(result) turns what it returned into plain data (lists, ints,
Fractions), and check(data) verifies that data with the independent
reference code in checkers.py.  extract and check run outside the timed
region.  Calls go through module
attributes at call time (factor.factor_poly_fp, not a bound copy), so
the tracer in trace.py sees them when it is installed.

Inputs have a fixed shape per class (degrees, sizes, factor patterns),
and only their coefficients depend on the seed, so the cost of one
class barely moves between seeds.
"""

import math
import operator
import random
from fractions import Fraction

import checkers as C

GF256_BITS = 0b100011011  # y^8 + y^4 + y^3 + y + 1, the AES modulus


# --------------------------------------------------------------- generators

def rand_poly(rng, p, deg, monic=False):
    """Dense random polynomial of exact degree deg over F_p (p=None: Z)."""
    if p is None:
        coeffs = [rng.randint(-999, 999) for _ in range(deg)]
        return coeffs + [rng.choice((-1, 1)) * rng.randint(1, 999)]
    coeffs = [rng.randrange(p) for _ in range(deg)]
    return coeffs + [1 if monic else rng.randrange(1, p)]


def rand_irreducible(rng, p, deg):
    """Random monic irreducible over F_p, found with the checker's test."""
    while True:
        g = rand_poly(rng, p, deg, monic=True)
        if C.rabin_irreducible(p, g):
            return g


def distinct_irreducibles(rng, p, degrees):
    out = []
    for d in degrees:
        while True:
            g = rand_irreducible(rng, p, d)
            if g not in out:
                out.append(g)
                break
    return out


def rand_prime(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        if C.miller_rabin(n):
            return n


def unimodular(rng, n, modulus, units):
    """L * U * P with unit diagonals: a matrix whose det is a unit."""
    span = modulus or 3

    def entry():
        return rng.randrange(span) if modulus else rng.randint(-2, 2)

    low = [[1 if i == j else (entry() if j < i else 0) for j in range(n)]
           for i in range(n)]
    up = [[rng.choice(units) if i == j else (entry() if j > i else 0)
           for j in range(n)] for i in range(n)]
    prod = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    if modulus:
        prod = [[x % modulus for x in row] for row in prod]
    rng.shuffle(prod)
    return prod


def rand_matrix(rng, n, modulus):
    if modulus:
        return [[rng.randrange(modulus) for _ in range(n)] for _ in range(n)]
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


# ------------------------------------------------------------ ringkit side

class Ringkit:
    """ringkit's modules, imported when the workload is built so that the
    import is part of the measured set-up."""

    def __init__(self):
        from ringkit import (algebra, euclid, factor, fracfield, matrix,
                             number_rings, poly, quotient, series)

        self.algebra, self.euclid, self.factor = algebra, euclid, factor
        self.fracfield, self.matrix, self.poly = fracfield, matrix, poly
        self.quotient, self.series = quotient, series
        self.nr = number_rings
        self.contexts = {}

    def ctx(self, key, make):
        if key not in self.contexts:
            self.contexts[key] = make()
        return self.contexts[key]

    def poly_ring(self, p):
        nr = self.nr
        return self.ctx(("poly", p), lambda: self.poly.PolyRing(
            nr.ZZ if p is None else nr.ModRing(p)))


def vals(elements):
    return [list(e.val) for e in elements]


def bezout_vals(cert):
    return vals((cert.g, cert.x, cert.y))


def field_of(p):
    return None if p is None else C.Fp(p)


# ---------------------------------------------------------- dense makers

def gen_mul(p, deg):
    return lambda rng: (rand_poly(rng, p, deg), rand_poly(rng, p, deg))


def make_mul(rk, raw, p):
    P = rk.poly_ring(p)
    a, b = P.element(raw[0]), P.element(raw[1])
    return (lambda: operator.mul(a, b), lambda r: list(r.val),
            lambda c: C.check_mul(field_of(p), raw[0], raw[1], c))


def gen_divmod(p, deg):
    return lambda rng: (rand_poly(rng, p, 2 * deg), rand_poly(rng, p, deg))


def make_divmod(rk, raw, p):
    P = rk.poly_ring(p)
    a, b = P.element(raw[0]), P.element(raw[1])
    K = C.Fp(p)
    return (lambda: divmod(a, b), vals,
            lambda qr: C.check_divmod(K, raw[0], raw[1], *qr))


def gen_xgcd_fp(deg):
    return lambda rng: (rand_poly(rng, 101, deg), rand_poly(rng, 101, deg - 1))


def make_xgcd_fp(rk, raw):
    P = rk.poly_ring(101)
    a, b = P.element(raw[0]), P.element(raw[1])
    return (lambda: rk.euclid.extended_gcd(a, b), bezout_vals,
            lambda gxy: C.check_xgcd(C.Fp(101), raw[0], raw[1], *gxy))


def gen_xgcd_q(rng):
    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    return ([rat() for _ in range(10)] + [Fraction(rng.randint(1, 9))],
            [rat() for _ in range(9)] + [Fraction(1)])


def make_xgcd_q(rk, raw):
    P = rk.ctx("polyQ", lambda: rk.poly.PolyRing(rk.nr.QQ))
    a, b = P.element(raw[0]), P.element(raw[1])
    return (lambda: rk.euclid.extended_gcd(a, b), bezout_vals,
            lambda gxy: C.check_xgcd(C.QQ, raw[0], raw[1], *gxy))


def gf256_ring(rk):
    """Poly(Quot(Fp:2, y^8+y^4+y^3+y+1)), i.e. GF(2^8)[x]."""
    def make():
        F2y = rk.poly_ring(2)
        bits = [GF256_BITS >> i & 1 for i in range(9)]
        return rk.poly.PolyRing(rk.quotient.QuotientRing(F2y, bits))

    return rk.ctx("gf256", make)


def gf_bits(c):
    return sum(b << i for i, b in enumerate(c))


def gf_payload(x):
    return [x >> i & 1 for i in range(x.bit_length())]


def gen_gf256(deg_a, deg_b):
    def gen(rng):
        return ([rng.randrange(256) for _ in range(deg_a)] + [1],
                [rng.randrange(256) for _ in range(deg_b)] + [1])
    return gen


def make_gf256_xgcd(rk, raw):
    P = gf256_ring(rk)
    a, b = (P.element([gf_payload(c) for c in x]) for x in raw)
    K = C.GF2k(GF256_BITS)
    return (lambda: rk.euclid.extended_gcd(a, b),
            lambda r: [[gf_bits(c) for c in e.val] for e in (r.g, r.x, r.y)],
            lambda gxy: C.check_xgcd(K, raw[0], raw[1], *gxy))


def make_gf256_divmod(rk, raw):
    P = gf256_ring(rk)
    a, b = (P.element([gf_payload(c) for c in x]) for x in raw)
    K = C.GF2k(GF256_BITS)
    return (lambda: divmod(a, b),
            lambda r: [[gf_bits(c) for c in e.val] for e in r],
            lambda qr: C.check_divmod(K, raw[0], raw[1], *qr))


def gen_series(prec):
    return lambda rng: (rand_poly(rng, 101, prec - 1),
                        rand_poly(rng, 101, prec - 1))


def series_ctx(rk, prec):
    return rk.ctx(("series", prec),
                  lambda: rk.series.SeriesRing(rk.nr.ModRing(101), prec))


def make_ts_invert(rk, raw, prec):
    f = list(raw[0])
    f[0] = f[0] or 1
    x = series_ctx(rk, prec).element(f)
    return (lambda: rk.series.ts_invert(x), lambda r: list(r.val),
            lambda g: C.check_series_inverse(C.Fp(101), f, g, prec))


def make_series_mul(rk, raw, prec):
    S = series_ctx(rk, prec)
    a, b = S.element(raw[0]), S.element(raw[1])
    return (lambda: operator.mul(a, b), lambda r: list(r.val),
            lambda c: C.check_series_mul(C.Fp(101), raw[0], raw[1], c, prec))


def gen_matmul(rng):
    return [[[rand_poly(rng, 101, 10) for _ in range(4)] for _ in range(4)]
            for _ in range(2)]


def make_matmul(rk, raw):
    M = rk.ctx("matpoly", lambda: rk.matrix.MatrixRing(rk.poly_ring(101), 4))
    a, b = M.element(raw[0]), M.element(raw[1])
    return (lambda: operator.mul(a, b),
            lambda r: [[list(e) for e in row] for row in r.val],
            lambda c: C.check_matmul(C.Fp(101), raw[0], raw[1], c))


def gen_frac(rng):
    return [rand_poly(rng, 101, 5) for _ in range(4)]


def make_frac(rk, raw, op):
    Fr = rk.ctx("frac", lambda: rk.fracfield.FracField(rk.poly_ring(101)))
    n1, d1, n2, d2 = raw
    a, b = Fr.element((n1, d1)), Fr.element((n2, d2))
    K = C.Fp(101)
    if op is operator.add:
        want = (C.padd(K, C.pmul(K, n1, d2), C.pmul(K, n2, d1)),
                C.pmul(K, d1, d2))
    else:
        want = (C.pmul(K, n1, n2), C.pmul(K, d1, d2))
    return (lambda: op(a, b), lambda r: [list(r.val[0]), list(r.val[1])],
            lambda nd: C.check_frac(K, *nd, *want))


# ----------------------------------------------------- exhaustive makers

# factor patterns: (degree, multiplicity) of the irreducible factors
FACTOR_PATTERNS = {
    2: [(1, 2), (3, 1), (5, 1), (6, 1), (8, 1)],
    3: [(1, 1), (2, 2), (3, 1), (4, 1)],
    5: [(1, 1), (3, 1), (4, 1)],
    7: [(1, 2), (2, 1), (4, 1)],
}


def gen_factor_poly(p, pattern):
    def gen(rng):
        gs = distinct_irreducibles(rng, p, [d for d, _ in pattern])
        f = [rng.randrange(1, p)]
        for g, (_, e) in zip(gs, pattern):
            for _ in range(e):
                f = C.pmul(C.Fp(p), f, g)
        return f
    return gen


def make_factor_poly(rk, raw, p):
    f = rk.poly_ring(p).element(raw)
    return (lambda: rk.factor.factor_poly_fp(f),
            lambda fac: [fac.unit[0], [[list(g), e] for g, e in fac.factors]],
            lambda data: C.check_factor_poly(p, raw, *data))


def gen_factor_integer(rng):
    """n = p * q near 10^12 with p in [9e5, 1e6): trial division runs up
    to p, so the cost is nearly the same for every seed."""
    p = rand_prime(rng, 900_000, 1_000_000)
    q = rand_prime(rng, p, 10**12 // p)
    return p * q


def make_factor_integer(rk, n):
    return (lambda: rk.factor.factor_integer(n),
            lambda fac: [fac.unit, [list(pe) for pe in fac.factors]],
            lambda data: C.check_factor_integer(n, *data))


def gen_pipeline(kind):
    """Z[x] inputs whose verdict comes from one known stage."""
    def gen(rng):
        if kind == "rational_root":     # (q x - r) * g, deg 6: reducible
            q, r = rng.randint(1, 4), rng.choice((-1, 1)) * rng.randint(1, 5)
            g = [rng.randint(-5, 5) for _ in range(5)] + [1]
            g[0] = g[0] or 1
            return "reducible", C.zmul([-r, q], g)
        if kind == "eisenstein":        # Eisenstein at p after x -> x - 2
            p = rng.choice((3, 5, 7))
            g = [p * rng.choice((1, 2)) if i == 0 else p * rng.randint(-2, 2)
                 for i in range(8)] + [1]
            return "irreducible", C.zshift(g, -2)
        if kind == "reduction":         # irreducible mod 2, deg 8
            h = rand_irreducible(rng, 2, 8)
            f = [c + 2 * rng.randint(-2, 2) for c in h[:-1]] + [1]
            return "irreducible", f
        # two rational-rootless quadratics: reducible, deg 4
        quads = []
        while len(quads) < 2:
            b, c = rng.randint(-4, 4), rng.randint(1, 9)
            disc = b * b - 4 * c
            if disc < 0 or math.isqrt(disc) ** 2 != disc:
                quads.append([c, b, 1])
        return "reducible", C.zmul(*quads)
    return gen


def make_pipeline(rk, raw):
    expect, coeffs = raw
    f = rk.poly_ring(None).element(coeffs)
    factor = rk.factor

    def extract(v):
        data = {k: Fraction(x) if k == "root" else int(x) for k, x in v.data}
        return [v.status, v.cert, data, factor.verify_certificate(f, v)]

    def check(data):
        status, cert, values, replays = data
        C.require(status != {"reducible": "irreducible",
                             "irreducible": "reducible"}[expect],
                  f"verdict {status} contradicts a {expect} construction")
        C.require(replays, "certificate does not replay through ringkit")
        C.check_certificate(coeffs, status, cert, values)

    return lambda: factor.irreducibility_pipeline(f), extract, check


def classification_payloads(c):
    return [[e.val for e in c.units], [e.val for e in c.zero_divisors],
            [e.val for e in c.nilpotents], [e.val for e in c.idempotents]]


def gen_classify(kind):
    def gen(rng):
        if kind == "zn1000":
            return 1000
        if kind == "zn_small":
            return rng.randrange(100, 200)
        if kind == "quot_f2_d6":        # g1^2 * g2, deg g1 = 1, deg g2 = 4
            g1, g2 = rand_irreducible(rng, 2, 1), rand_irreducible(rng, 2, 4)
            return 2, [(g1, 2), (g2, 1)]
        if kind == "quot_f3_d4":        # g1^2 * g2, deg g1 = 1, deg g2 = 2
            g1, g2 = rand_irreducible(rng, 3, 1), rand_irreducible(rng, 3, 2)
            return 3, [(g1, 2), (g2, 1)]
        if kind == "prod":
            return rng.choice((4, 6)), rng.choice((6, 10))
        if kind == "gaussian":          # (Gaussian prime, exponent) lists
            return rng.choice((
                [((3, 0), 1)],
                [((2, 1), 1), ((1, 1), 1)],
                [((1, 1), 3)],
                [((3, 0), 1), ((2, 1), 1)],
                [((3, 2), 1)],
            ))
        return None
    return gen


def make_classify(rk, raw, kind):
    nr, Q = rk.nr, rk.quotient.QuotientRing
    if kind in ("zn1000", "zn_small"):
        ctx = nr.ModRing(raw)
        return (lambda: rk.algebra.classify(ctx), classification_payloads,
                lambda sets: C.check_classify_zn(raw, *sets))
    if kind.startswith("quot_f"):
        q, factors = raw
        model = C.quot_fp_model(q, factors)
        K = C.Fp(q)
        m = [1]
        for g, e in factors:
            for _ in range(e):
                m = C.pmul(K, m, g)
        ctx = Q(rk.poly_ring(q), m)
    elif kind == "mat":
        model, ctx = C.mat2_model(2), rk.matrix.MatrixRing(nr.ModRing(2), 2)
    elif kind == "series":
        model, ctx = C.series_model(3, 3), rk.series.SeriesRing(
            nr.ModRing(3), 3)
    elif kind == "prod":
        model = C.prod_zn_model(*raw)
        ctx = rk.algebra.ProductRing([nr.ModRing(n) for n in raw])
    else:
        model = C.gaussian_model(raw)
        m = (1, 0)
        for (a, b), e in raw:
            for _ in range(e):
                m = (m[0] * a - m[1] * b, m[0] * b + m[1] * a)
        ctx = Q(nr.QuadIntRing(-1), m)

    return (lambda: rk.algebra.classify(ctx), classification_payloads,
            lambda sets: C.check_classify_model(model, *sets))


MAT_BASES = {"z": (None, [1, -1]), "zn9": (9, [1, 2, 4, 5, 7, 8]),
             "fp101": (101, list(range(1, 101)))}


def mat_ring(rk, modulus, n):
    base = rk.nr.ZZ if modulus is None else rk.nr.ModRing(modulus)
    return rk.ctx(("mat", modulus, n),
                  lambda: rk.matrix.MatrixRing(base, n))


def gen_matrix(kind, base, n):
    modulus, units = MAT_BASES[base]

    def gen(rng):
        if kind == "det":
            return rand_matrix(rng, n, modulus)
        a = unimodular(rng, n, modulus, units)
        if kind == "inverse":
            return a
        span = modulus or 50
        return a, [rng.randrange(span) for _ in range(n)]
    return gen


def make_matrix(rk, raw, kind, base, n):
    modulus = MAT_BASES[base][0]
    M = mat_ring(rk, modulus, n)
    mx = rk.matrix
    if kind == "det":
        a = M.element(raw)
        return (lambda: mx.det(a), lambda d: d.val,
                lambda d: C.check_det(modulus, raw, d))
    if kind == "inverse":
        a = M.element(raw)
        return (lambda: mx.mat_inverse(a),
                lambda b: [list(row) for row in b.val],
                lambda b: C.check_mat_inverse(modulus, raw, b))
    rows, rhs = raw
    a = M.element(rows)
    col = [M.base.element(x) for x in rhs]
    return (lambda: mx.cramer_solve(a, col), lambda xs: [x.val for x in xs],
            lambda xs: C.check_cramer(modulus, rows, rhs, xs))


def gen_crt(rng):
    moduli = []
    while len(moduli) < 4:
        m = rng.randrange(2, 2000)
        if all(math.gcd(m, k) == 1 for k in moduli):
            moduli.append(m)
    return [(rng.randrange(m), m) for m in moduli]


def make_crt(rk, raw):
    Z = rk.nr.ZZ
    congs = [(Z.element(b), Z.element(m)) for b, m in raw]
    return (lambda: rk.euclid.crt_solve(congs),
            lambda r: [r[0].val, r[1].val],
            lambda xm: C.check_crt(raw, *xm))


def make_lattice(rk, n):
    return (lambda: rk.quotient.ideal_divisor_lattice(n),
            lambda lat: [list(t) for t in lat],
            lambda lat: C.check_ideal_lattice(n, lat))


# ----------------------------------------------------------- the workloads

def dense_classes():
    out = []
    # 80 operations a round; the counts put the median in the middle of
    # mul fp_d10 (operations 28-49 by latency) and the 90th percentile in
    # the middle of the degree-1000 products, below the two divmods
    for p, tag, counts in ((101, "fp", (24, 21, 1, 10)),
                           (None, "z", (4, 2, 1, 1))):
        for deg, count in zip((4, 10, 100, 1000), counts):
            out.append((f"poly.mul.{tag}_d{deg}", count, gen_mul(p, deg),
                        lambda rk, raw, p=p: make_mul(rk, raw, p)))
    for deg, count in ((10, 2), (100, 1), (1000, 2)):
        out.append((f"poly.divmod.fp_d{deg}", count, gen_divmod(101, deg),
                    lambda rk, raw: make_divmod(rk, raw, 101)))
    for prec in (200, 500):
        out.append((f"series.ts_invert.fp_p{prec}", 1, gen_series(prec),
                    lambda rk, raw, n=prec: make_ts_invert(rk, raw, n)))
        out.append((f"series.mul.fp_p{prec}", 1, gen_series(prec),
                    lambda rk, raw, n=prec: make_series_mul(rk, raw, n)))
    out += [
        ("euclid.xgcd.fp_d200", 1, gen_xgcd_fp(200), make_xgcd_fp),
        ("euclid.xgcd.q_d10", 1, gen_xgcd_q, make_xgcd_q),
        ("euclid.xgcd.gf256_d10", 1, gen_gf256(10, 9), make_gf256_xgcd),
        ("poly.divmod.gf256_d10", 1, gen_gf256(20, 10),
         make_gf256_divmod),
        ("matrix.mul.polyfp_n4", 1, gen_matmul, make_matmul),
        ("fracfield.add.polyfp_d5", 1, gen_frac,
         lambda rk, raw: make_frac(rk, raw, operator.add)),
        ("fracfield.mul.polyfp_d5", 1, gen_frac,
         lambda rk, raw: make_frac(rk, raw, operator.mul)),
    ]
    return out


def exhaustive_classes():
    # 100 operations a round; the counts put the median in the middle of
    # factor_poly_fp over F_2 (operations 42-58 by latency) and the 90th
    # percentile in the middle of factor_integer, which only four heavier
    # operations (classify Zn:1000 and the two Quot rings, det 8x8) exceed
    out = []
    for p, deg, count in ((2, 24, 16), (3, 12, 13), (5, 8, 11), (7, 8, 10)):
        out.append((f"factor.factor_poly_fp.f{p}_d{deg}", count,
                    gen_factor_poly(p, FACTOR_PATTERNS[p]),
                    lambda rk, raw, p=p: make_factor_poly(rk, raw, p)))
    for kind, count in (("rational_root", 3), ("eisenstein", 3),
                        ("reduction", 5), ("quadratics", 5)):
        out.append((f"factor.irreducibility_pipeline.{kind}", count,
                    gen_pipeline(kind), make_pipeline))
    for kind in ("zn1000", "zn_small", "quot_f2_d6", "quot_f3_d4", "mat",
                 "series", "prod", "gaussian"):
        out.append((f"algebra.classify.{kind}", 1 + (kind == "zn_small"),
                    gen_classify(kind),
                    lambda rk, raw, k=kind: make_classify(rk, raw, k)))
    for kind, base, n, count in (
            ("det", "z", 8, 1), ("det", "zn9", 7, 2),
            ("det", "fp101", 6, 1), ("det", "z", 5, 1),
            ("inverse", "zn9", 6, 1), ("inverse", "z", 5, 1),
            ("inverse", "fp101", 6, 1), ("cramer", "fp101", 6, 1),
            ("cramer", "z", 6, 1), ("cramer", "zn9", 5, 1)):
        name = {"det": "det", "inverse": "mat_inverse",
                "cramer": "cramer_solve"}[kind]
        out.append((f"matrix.{name}.{base}_n{n}", count,
                    gen_matrix(kind, base, n),
                    lambda rk, raw, a=(kind, base, n):
                    make_matrix(rk, raw, *a)))
    out += [
        ("factor.factor_integer.e12", 12, gen_factor_integer,
         make_factor_integer),
        ("euclid.crt_solve.z4", 1, gen_crt, make_crt),
        ("quotient.ideal_divisor_lattice", 1,
         lambda rng: rng.randrange(50_000, 100_000), make_lattice),
    ]
    return out


WORKLOADS = {"dense": dense_classes, "exhaustive": exhaustive_classes}


def generate(workload, seed):
    """Raw inputs for every operation of one round, drawn from the seed
    alone; ringkit is not imported here."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for name, count, gen, make in WORKLOADS[workload]():
        out.append((name, make, [gen(rng) for _ in range(count)]))
    return out


def build(raw_classes):
    """Import ringkit and build one round, interleaved by class: the i-th
    operation of every class, then the (i+1)-th, and so on."""
    rk = Ringkit()
    per_class = [[(name,) + make(rk, raw) for raw in raws]
                 for name, make, raws in raw_classes]
    round_ops = []
    for i in range(max(len(ops) for ops in per_class)):
        round_ops.extend(ops[i] for ops in per_class if i < len(ops))
    return round_ops
