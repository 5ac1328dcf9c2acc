"""The cli workload: one `python -m ringkit.cli` process per operation.

Each operation is (class, argv, check, known_fault).  check(code, out,
err) parses the printed line back and verifies it with checkers.py;
none compares against a stored copy of ringkit's output.  The argv list
has three parts:

  * every golden argv of tests/test_cli.py (copied here, without the
    expected outputs);
  * heavier verbs whose operands come from the seed;
  * two argvs that fail today because of known faults (KNOWN_FAULTS).
    They stay in every round, so the failed share is the same in every
    run, until ringkit is mended.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import checkers as C
import workloads as W

TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)(?:\*([a-z])(?:\^(-?\d+))?)?"
                  r"|([a-z])(?:\^(-?\d+))?)")


def parse_terms(text):
    """'3*x^2-x+5/2' -> {('x', 2): 3, ('x', 1): -1, ('', 0): 5/2}."""
    out, pos = {}, 0
    C.require(text, "empty output")
    while pos < len(text):
        m = TERM.match(text, pos)
        C.require(m and m.end() > pos, f"cannot parse {text!r}")
        sign, coeff, sym1, exp1, sym2, exp2 = m.groups()
        sym = sym1 or sym2 or ""
        exp = exp1 or exp2
        key = (sym, int(exp) if exp else (1 if sym else 0))
        c = Fraction(coeff) if coeff else Fraction(1)
        out[key] = out.get(key, 0) + (-c if sign == "-" else c)
        pos = m.end()
    return out


def parse_poly(text, p=None):
    """A printed polynomial in x as an ascending coefficient list."""
    if text == "0":
        return []
    terms = parse_terms(text)
    C.require(all(s in ("", "x") for s, _ in terms), f"stray symbol {text!r}")
    coeffs = [0] * (max(k for _, k in terms) + 1)
    for (_, k), c in terms.items():
        C.require(c.denominator == 1 or p is None, f"fraction in {text!r}")
        coeffs[k] = c if c.denominator != 1 else int(c)
    return C.pnorm(C.Fp(p), coeffs) if p else C.strip(coeffs)


def parse_list(text):
    C.require(text.startswith("[") and text.endswith("]"),
              f"not a list {text!r}")
    inner = text[1:-1]
    return [int(x) for x in inner.split(",")] if inner else []


def parse_matrix(text):
    C.require(text.startswith("[[") and text.endswith("]]"),
              f"not a matrix {text!r}")
    return [[int(x) for x in row.split(",")]
            for row in text[2:-2].split("],[")]


def parse_factorization(text, poly_p=None):
    """'-1 * 2^2 * 7' or '(x+1)^2 * (x^2+x+1)' -> (unit, [(f, e)])."""
    unit, factors = 1, []
    for i, piece in enumerate(text.split(" * ")):
        m = re.fullmatch(r"(\(.*\)|-?\d+)(?:\^(\d+))?", piece)
        C.require(m, f"bad factor {piece!r}")
        base, exp = m.group(1), int(m.group(2) or 1)
        if base.startswith("("):
            factors.append((parse_poly(base[1:-1], poly_p), exp))
        elif i == 0 and m.group(2) is None and (
                poly_p is not None or base in ("1", "-1")):
            unit = int(base)
        else:
            factors.append((int(base), exp))
    return unit, factors


def expr_check(want):
    return lambda out: C.require(out == str(want), f"{out} != {want}")


def gauss_divides(d, x):
    n = d[0] ** 2 + d[1] ** 2
    t = (x[0] * d[0] + x[1] * d[1], x[1] * d[0] - x[0] * d[1])
    return t[0] % n == 0 and t[1] % n == 0


def parse_gaussian(text):
    terms = parse_terms(text)
    C.require(all(s in ("", "i") for s, _ in terms), f"not in Z[i]: {text!r}")
    return (int(terms.get(("", 0), 0)), int(terms.get(("i", 1), 0)))


def check_gauss_gcd(a, b):
    def check(out):
        g = parse_gaussian(out)
        C.require(g[0] > 0 and g[1] >= 0,
                  "gcd is not the first-quadrant associate")
        C.require(gauss_divides(g, a) and gauss_divides(g, b),
                  "gcd does not divide both")
        na, nb = a[0] ** 2 + a[1] ** 2, b[0] ** 2 + b[1] ** 2
        # a common divisor's norm divides gcd(N(a), N(b)); here it is 1
        C.require(math.gcd(na, nb) != 1 or g == (1, 0), "gcd is not 1")
    return check


def quat_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def check_quat(x, y):
    def check(out):
        terms = parse_terms(out) if out != "0" else {}
        got = tuple(terms.get((s, 1 if s else 0), 0)
                    for s in ("", "i", "j", "k"))
        C.require(len(terms) == sum(1 for v in got if v), f"stray term {out!r}")
        C.require(got == quat_mul(x, y), f"{out} is not the product")
    return check


def check_classify_output(n):
    def check(out):
        blocks = dict(part.split("=", 1) for part in out.split(" "))
        C.check_classify_zn(n, *(parse_list(blocks[k]) for k in (
            "units", "zero_divisors", "nilpotents", "idempotents")))
    return check


def check_lattice_output(n):
    def check(out):
        m = re.fullmatch(r"ideals: ([\d,]+) prime: ([\d,]*) maximal: ([\d,]*)",
                         out)
        C.require(m, f"cannot parse {out!r}")
        ideals, prime, maximal = ([int(x) for x in g.split(",") if x]
                                  for g in m.groups())
        C.check_ideal_lattice(
            n, [(d, d in prime, d in maximal) for d in ideals])
    return check


def check_xgcd_output(K, a, b, parse=int):
    def check(out):
        parts = out.split(" ")
        C.require(len(parts) == 3, f"expected 'g x y', got {out!r}")
        if parse is int:
            g, x, y = map(int, parts)
            C.require(a * x + b * y == g == math.gcd(a, b), "Bezout fails")
        else:
            C.check_xgcd(K, a, b, *(parse(t) for t in parts))
    return check


def check_sqfree_int(n):
    def check(out):
        v = int(out)
        C.require(v > 0 and n % v == 0, f"{v} does not divide {n}")
        C.require(all(v % (q * q) for q in C.prime_factors(v)),
                  f"{v} is not squarefree")
        r = math.isqrt(n // v)
        C.require(r * r == n // v, f"{n}/{v} is not a square")
    return check


def check_sqfree_poly(p, f):
    """out is squarefree, divides f, and f/out is a unit times a square."""
    K = C.Fp(p)

    def check(out):
        g = parse_poly(out, p)
        C.require(g and g[-1] == 1, "squarefree part is not monic")
        dg = C.strip(i * c % p for i, c in enumerate(g))[1:]
        C.require(len(C.pgcd(K, g, dg)) == 1, f"{out} is not squarefree")
        q, r = C.pdivmod(K, f, g)
        C.require(not r, f"{out} does not divide f")
        C.require(len(q) % 2 == 1, "cofactor has odd degree")
        half = (len(q) - 1) // 2
        squares = (C.pmul(K, [q[-1]], C.pmul(K, list(h) + [1], list(h) + [1]))
                   for h in itertools.product(range(p), repeat=half))
        C.require(any(s == q for s in squares), "cofactor is not a square")
    return check


def check_primassoc(f):
    def check(out):
        g = parse_poly(out)
        C.require(g and g[-1] > 0 and len(g) == len(C.strip(f)), "bad shape")
        C.require(C.primitive(g) == g, f"{out} is not primitive")
        C.require(all(f[i] * g[j] == f[j] * g[i]
                      for i in range(len(g)) for j in range(len(g))),
                  f"{out} is not an associate of f")
    return check


def check_interpolation(p, points):
    K = C.Fp(p)

    def check(out):
        g = parse_poly(out, p)
        C.require(len(g) <= len(points), "degree too high")
        for x, y in points:
            acc = 0
            for c in reversed(g):
                acc = K.add(K.mul(acc, x), c)
            C.require(acc == y % p, f"value at {x} is {acc}, not {y}")
    return check


def parse_series(text):
    C.require(text.startswith("[") and text.endswith("]") and ";" in text,
              f"not a series {text!r}")
    body, _, prec = text[1:-1].rpartition(";")
    return [int(x) for x in body.split(",")], int(prec)


def check_series_invert(p, f, prec):
    def check(out):
        g, got_prec = parse_series(out)
        C.require(got_prec == prec, "wrong precision")
        C.check_series_inverse(C.Fp(p), f, g, prec)
    return check


def check_laurent(p, num, den):
    """den * L agrees with num on every coefficient L determines."""
    K = C.Fp(p)

    def check(out):
        body, _, tail = out.rpartition("+O(x^")
        C.require(tail.endswith(")"), f"no O-term in {out!r}")
        window = int(tail[:-1])
        terms = parse_terms(body)
        low = min(k for _, k in terms)
        shifted = [0] * (max(k for _, k in terms) - low + 1)
        for (_, k), c in terms.items():
            shifted[k - low] = int(c) % p
        order = next(i for i, c in enumerate(den) if c)
        prod = C.pmul(K, shifted, den)       # = x^(-low) * den * L
        known = window + order               # den * L is known mod x^known
        lhs = [prod[k - low] if 0 <= k - low < len(prod) else 0
               for k in range(known)]
        rhs = [num[k] % p if k < len(num) else 0 for k in range(known)]
        C.require(lhs == rhs, f"den * ({out}) != num")
    return check


def check_verdict(f, expect=None):
    def check(out):
        head, *rest = out.split(" ")
        status = head.lower()
        data = dict(kv.split("=", 1) for kv in rest)
        cert = data.pop("cert", None)
        values = {k: Fraction(v) if k == "root" else int(v)
                  for k, v in data.items()}
        C.require(status in ("irreducible", "reducible", "inconclusive"),
                  f"unknown verdict {out!r}")
        if expect:
            C.require(status != {"reducible": "irreducible",
                                 "irreducible": "reducible"}[expect],
                      f"{status} contradicts a {expect} construction")
        C.check_certificate(f, status, cert, values)
    return check


def lit(coeffs):
    return "[" + ",".join(map(str, coeffs)) + "]"


def mat_lit(rows):
    return "[" + ",".join(lit(r) for r in rows) + "]"


# ------------------------------------------------------------------ argvs

def golden():
    """The golden argvs of tests/test_cli.py, each with its own check."""
    F2, F7 = C.Fp(2), C.Fp(7)
    quot = C.pdivmod(F2, C.padd(F2, C.pmul(F2, [0, 1], [0, 1]), [0, 1]),
                     [1, 1, 1])[1]
    return [
        (["eval", "Zn:12", "7*5+3"], expr_check((7 * 5 + 3) % 12)),
        (["eval", "Q", "2/3 + 1/6"],
         expr_check(Fraction(2, 3) + Fraction(1, 6))),
        (["gcd", "Z", "252", "198"], expr_check(math.gcd(252, 198))),
        (["gcd", "Quad:-1", "4+i", "1+2i"], check_gauss_gcd((4, 1), (1, 2))),
        (["xgcd", "Z", "252", "198"], check_xgcd_output(None, 252, 198)),
        (["lcm", "Z", "4", "6"], expr_check(4 * 6 // math.gcd(4, 6))),
        (["inv", "Zn:40", "13"], lambda out: C.require(
            0 <= int(out) < 40 and 13 * int(out) % 40 == 1, "not an inverse")),
        (["crt", "Z", "3:4", "8:13"], lambda out: C.check_crt(
            [(3, 4), (8, 13)], *map(int, out.split(" mod ")))),
        (["phi", "16"], expr_check(C.euler_phi(16))),
        (["factor-int", "-252"], lambda out: C.check_factor_integer(
            -252, *parse_factorization(out))),
        (["factor-poly", "Fp:2", "[1,0,0,0,0,0,0,0,1]"],
         lambda out: C.check_factor_poly(
             2, [1, 0, 0, 0, 0, 0, 0, 0, 1], *parse_factorization(out, 2))),
        (["content", "Z", "[-12,0,6]"], expr_check(math.gcd(12, 0, 6))),
        (["primassoc", "Z", "[-12,0,6]"], check_primassoc([-12, 0, 6])),
        (["sqfree", "Z", "180"], check_sqfree_int(180)),
        (["sqfree", "Fp:3", "[0,1,2,1]"], check_sqfree_poly(3, [0, 1, 2, 1])),
        (["irreducible", "Q", "[-9,26,16,6,1]"],
         check_verdict([-9, 26, 16, 6, 1])),
        (["interpolate", "Fp:7", "2:5", "3:1", "5:6"],
         check_interpolation(7, [(2, 5), (3, 1), (5, 6)])),
        (["series-invert", "Fp:5", "[1,2,3;6]"],
         check_series_invert(5, [1, 2, 3], 6)),
        (["laurent", "--precision", "4", "Fp:5", "[1,4,2]", "[0,1,3,1]"],
         check_laurent(5, [1, 4, 2], [0, 1, 3, 1])),
        (["quad-norm", "Quad:-5", "2+3s"], expr_check(2 * 2 + 5 * 3 * 3)),
        (["quad-norm", "Quad:-1", "3+4i"], expr_check(3 * 3 + 4 * 4)),
        (["quat-mul", "(2+3j)", "(5i-k)"],
         check_quat((2, 0, 3, 0), (0, 5, 0, -1))),
        (["quat-mul", "i", "j"], check_quat((0, 1, 0, 0), (0, 0, 1, 0))),
        (["classify", "Zn:6"], check_classify_output(6)),
        (["mat-inv", "Zn:9", "[[2,5],[8,6]]"], lambda out: C.check_mat_inverse(
            9, [[2, 5], [8, 6]], parse_matrix(out))),
        (["cramer", "Z", "[[2,7],[1,4]]", "[-25,-16]"],
         lambda out: C.check_cramer(None, [[2, 7], [1, 4]], [-25, -16],
                                    parse_list(out))),
        (["quot-eval", "Quot(Fp:2,[1,1,1])", "[0,1]*[0,1]+[0,1]"],
         lambda out: C.require(parse_poly(out, 2) == quot, f"{out} != {quot}")),
        (["quot-eval", "Quot(Z,12)", "7*5+3"], expr_check((7 * 5 + 3) % 12)),
        (["ideal-lattice", "12"], check_lattice_output(12)),
    ]


def heavy_classes(rng):
    """Heavier verbs with seeded operands, as {class: [(argv, check)]}.

    factor-poly over F_2 at degree 24 has two shapes of fixed cost: an
    irreducible f, which sieves every monic irreducible up to degree 12,
    and (x + 1) times an irreducible of degree 23, which sieves up to
    degree 11.  The second, six to a round, holds the 90th percentile."""
    out = {}

    def add(cls, argv, check):
        out.setdefault(cls, []).append((argv, check))

    for _ in range(2):
        f = W.rand_irreducible(rng, 2, 24)
        add("factor_poly.f2_irr24", ["factor-poly", "Fp:2", lit(f)],
            lambda o, f=f: C.check_factor_poly(
                2, f, *parse_factorization(o, 2)))
    for _ in range(6):
        f = C.pmul(C.Fp(2), [1, 1], W.rand_irreducible(rng, 2, 23))
        add("factor_poly.f2_lin_irr23", ["factor-poly", "Fp:2", lit(f)],
            lambda o, f=f: C.check_factor_poly(
                2, f, *parse_factorization(o, 2)))
    add("classify.zn360", ["classify", "Zn:360"], check_classify_output(360))
    h = W.rand_irreducible(rng, 2, 6)
    f = [c + 2 * rng.randint(-2, 2) for c in h[:-1]] + [1]
    add("irreducible.q_d6_reduction", ["irreducible", "Q", lit(f)],
        check_verdict(f, "irreducible"))
    a = W.unimodular(rng, 6, 9, [1, 2, 4, 5, 7, 8])
    add("mat_inv.zn9_n6", ["mat-inv", "Zn:9", mat_lit(a)],
        lambda o, a=a: C.check_mat_inverse(9, a, parse_matrix(o)))
    a = W.unimodular(rng, 6, 101, list(range(1, 101)))
    b = [rng.randrange(101) for _ in range(6)]
    add("cramer.fp101_n6", ["cramer", "Fp:101", mat_lit(a), lit(b)],
        lambda o, a=a, b=b: C.check_cramer(101, a, b, parse_list(o)))
    f = W.rand_poly(rng, 101, 199)
    f[0] = f[0] or 1
    add("series_invert.fp101_p200",
        ["series-invert", "Fp:101", lit(f)[:-1] + ";200]"],
        check_series_invert(101, f, 200))
    n = W.gen_factor_integer(rng)
    add("factor_int.e12", ["factor-int", str(n)],
        lambda o, n=n: C.check_factor_integer(n, *parse_factorization(o)))
    a, b = W.rand_poly(rng, 101, 60), W.rand_poly(rng, 101, 59)
    add("xgcd.fp101_d60", ["xgcd", "Poly(Fp:101)", lit(a), lit(b)],
        check_xgcd_output(C.Fp(101), a, b, lambda t: parse_poly(t, 101)))
    pts = [(x, rng.randrange(101)) for x in rng.sample(range(101), 8)]
    add("interpolate.fp101_8", ["interpolate", "Fp:101"] + [
        f"{x}:{y}" for x, y in pts], check_interpolation(101, pts))
    n = rng.randrange(10**8, 10**9)
    add("sqfree.z_e9", ["sqfree", "Z", str(n)], check_sqfree_int(n))
    a, b = rng.randrange(10**30, 10**31), rng.randrange(10**30, 10**31)
    add("xgcd.z_e30", ["xgcd", "Z", str(a), str(b)],
        check_xgcd_output(None, a, b))
    congs = W.gen_crt(rng)
    add("crt.z4", ["crt", "Z"] + [f"{r}:{m}" for r, m in congs],
        lambda o, c=congs: C.check_crt(c, *map(int, o.split(" mod "))))
    return out


def check_typed_error(code, out, err):
    """Exit 0, or exit 1/2 with one typed message line and no traceback."""
    C.require("Traceback" not in err, "traceback on stderr")
    if code != 0:
        C.require(code in (1, 2) and re.fullmatch(
            r"(parse error|[A-Z]\w*): .+", err.strip()),
            f"exit {code} without a typed message")


KNOWN_FAULTS = [
    # eval_expr hands the bracket chunk back to Quad's parser, which is
    # eval_expr again: RecursionError, exit 1, with a traceback
    ("fault.quad_bracket", ["eval", "Quad:-1", "[1]"], check_typed_error),
    # ProductRing.parse accepts (1,2) but eval reports a parse error
    ("fault.prod_eval", ["eval", "Prod(Z,Zn:6)", "(1,2)"],
     lambda code, out, err: C.require(
         (code, err, out) == (0, "", "(1,2)"), f"exit {code}: {err or out}")),
]


def clean(check):
    """Wrap a check on the printed line: exit 0, empty stderr first."""
    def full(code, out, err):
        C.require(code == 0 and not err, f"exit {code}: {err[-200:]}")
        check(out)
    return full


def operations(seed):
    """One round: (class, argv, check, known_fault), interleaved by class."""
    rng = random.Random(f"cli:{seed}")
    classes = [[("golden", argv, clean(check), False)
                for argv, check in golden()]]
    for cls, items in heavy_classes(rng).items():
        classes.append([(cls, argv, clean(check), False)
                        for argv, check in items])
    classes += [[(cls, argv, check, True)] for cls, argv, check in KNOWN_FAULTS]
    ops = []
    for i in range(max(len(c) for c in classes)):
        ops.extend(c[i] for c in classes if i < len(c))
    return ops
