"""A seeded corpus of CLI argvs and the digests of what they print.

argvs() rebuilds the same list of argvs from SEED every time: the verbs
eval, gcd, xgcd, series-invert, factor-poly, irreducible, sqfree and
classify over polynomial and series rings on F_2, F_101, Z/12, Z,
Quot(Z,7), GF(8) = Quot(Fp:2,[1,1,0,1]) and GF(2^8); then the fixed
argvs of GATED, INVERSES and HEADS, which pin the refusal message of
every polynomial verb, negative powers and division in rings with few
units, and the messages of malformed context heads; then loop_argvs(),
eval, series-invert, gcd and xgcd over the bases of LOOP_BASES, which
have no kernel() record; then crt_argvs(), crt and interpolate over Z,
Z[i], F_7[x], Q[x] and five fields, and the quotients of Q[x] by a few
moduli of degree 2, 4 and 5; then irreducibility_argvs(), irreducible,
sqfree, content and primassoc over Z and Q, and irreducible over three
imaginary quadratic rings.  DIGESTS holds, one line per argv, the argv as
JSON, the exit code of main() and the sha256 of its stdout and of its
stderr, tab-separated.  test_corpus.py replays every argv in-process and
compares.

To see what a change alters, print each argv whose line differs from
DIGESTS, with its exit code, stdout and stderr:

    PYTHONPATH=src python tests/corpus.py --changed

Run in a checkout of the code before the change, with the same two
corpus files, the same command prints the old text.  To re-freeze the
file after a change that is meant to alter output:

    PYTHONPATH=src python tests/corpus.py

and list every argv whose line changed, with its old and new text.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

SEED = 16
DIGESTS = Path(__file__).with_name("corpus.sha256")

GF8 = "Quot(Fp:2,[1,1,0,1])"
GF256 = "Quot(Fp:2,[1,1,0,1,1,0,0,0,1])"
# base literal -> a random coefficient text of that base
BASES = {
    "Fp:2": lambda rng: str(rng.randrange(2)),
    "Fp:101": lambda rng: str(rng.randrange(101)),
    "Zn:12": lambda rng: str(rng.randrange(12)),
    "Z": lambda rng: str(rng.randint(-20, 20)),
    "Quot(Z,7)": lambda rng: str(rng.randrange(9)),
    GF8: lambda rng: _bits(rng, 3),
    GF256: lambda rng: _bits(rng, 8),
}


def _bits(rng, k):
    return "[" + ",".join(str(rng.randrange(2)) for _ in range(k)) + "]"


def _poly(rng, base, deg):
    """A coefficient-list literal of degree deg (a nonzero lead, unless
    the base draws a zero)."""
    coeffs = [BASES[base](rng) for _ in range(deg + 1)]
    if set(coeffs[-1]) <= set("[0,]"):
        coeffs[-1] = "1"
    return "[" + ",".join(coeffs) + "]"


def _ring(rng, base):
    """The ctx operand of a poly verb: the base or Poly(base)."""
    return base if rng.random() < 0.5 else f"Poly({base})"


def _series(rng, base, prec):
    coeffs = [BASES[base](rng) for _ in range(rng.randint(1, prec))]
    if rng.random() < 0.8:
        coeffs[0] = "1"
    return "[" + ",".join(coeffs) + "]"


def argvs():
    rng = random.Random(SEED)
    out = []
    for base in BASES:
        for _ in range(8):  # eval in the polynomial ring
            a, b, c = (_poly(rng, base, rng.randint(0, 12)) for _ in range(3))
            expr = rng.choice([f"{a}*{b}+{c}", f"{a}^3-{b}", f"{a}*{a}-{c}",
                               f"0-{a}+{b}", f"{a}-{a}"])
            out.append(["eval", f"Poly({base})", expr])
        for _ in range(6):  # eval in a series ring
            prec = rng.randint(1, 40)
            a, b = (_series(rng, base, prec) for _ in range(2))
            expr = rng.choice([f"{a}*{b}", f"{a}+{b}", f"{a}-{b}", f"0-{a}",
                               f"{a}^2*{b}"])
            out.append(["eval", f"Series({base},{prec})", expr])
        for _ in range(6):
            prec = rng.choice([1, 2, 5, 12, 33, 70])
            f = _series(rng, base, prec)
            if rng.random() < 0.5:
                out.append(["series-invert", base, f"{f[:-1]};{prec}]"])
            else:
                out.append(["series-invert", f"Series({base},{prec})", f])
        for _ in range(8):  # gcd and xgcd, with planted common factors
            da, db = rng.randint(0, 20), rng.randint(0, 20)
            if rng.random() < 0.15:
                da, db = rng.randint(40, 60), rng.randint(40, 60)
            a, b = _poly(rng, base, da), _poly(rng, base, db)
            if rng.random() < 0.4:
                c = _poly(rng, base, rng.randint(1, 5))
                a, b = f"{a}*{c}", f"{b}*{c}"
            if rng.random() < 0.1:
                b = "0"
            verb = rng.choice(["gcd", "xgcd"])
            out.append([verb, f"Poly({base})", a, b])
        for verb in ("factor-poly", "irreducible", "sqfree"):
            for _ in range(5):
                f = _poly(rng, base, rng.randint(1, 16))
                if rng.random() < 0.4:
                    f = f"{f}^{rng.randint(2, 3)}*{_poly(rng, base, 2)}"
                out.append([verb, _ring(rng, base), f])
    for _ in range(12):  # integer operands of sqfree
        n = rng.randint(-10**6, 10**6) or 1
        out.append(["sqfree", "Z", str(n)])
    for ctx in ["Fp:2", "Fp:101", "Zn:12", "Z", "Quot(Z,7)", GF8,
                "Poly(Fp:2)", "Series(Fp:2,4)", "Series(Zn:12,2)",
                "Series(Quot(Z,7),2)", f"Series({GF8},2)",
                "Quot(Poly(Quot(Z,7)),[3,0,1])",
                "Quot(Poly(Quot(Z,7)),[1,0,1])"]:
        out.append(["classify", ctx])
    for _ in range(10):  # quotients of F_2[x] and F_3[x], Z and Z[i]
        deg = rng.randint(1, 6)
        m = [rng.randrange(2) for _ in range(deg)] + [1]
        out.append(["classify", f"Quot(Fp:2,{m})".replace(" ", "")])
        m = [rng.randrange(3) for _ in range(rng.randint(1, 4))] + [1]
        out.append(["classify", f"Quot(Fp:3,{m})".replace(" ", "")])
        out.append(["classify", f"Quot(Z,{rng.randint(2, 400)})"])
    for g in ["3", "2+2*i", "1+i", "3+2*i"]:
        out.append(["classify", f"Quot(Quad:-1,{g})"])
    out += [["factor-poly", "Quot(Z,5)", "[1,0,0,0,1]"],
            ["factor-poly", "Fp:5", "[1,0,0,0,1]"],
            ["irreducible", "Quot(Z,5)", "[2,0,1]"],
            ["eval", "Quot(Poly(Quot(Z,5)),[2,0,1])", "[1,1]^-1"]]
    for i in range(0, len(out), 9):  # every ninth argv under --json too
        out.append(["--json", *out[i]])
    for verb in ("content", "primassoc", "sqfree", "irreducible",
                 "factor-poly"):
        out += [[verb, ctx, f] for ctx, f in GATED]
    out += [["irreducible", d, x] for d, xs in QUADS.items() for x in xs]
    for ctx, (exprs, units) in INVERSES.items():
        out += [["eval", ctx, e] for e in exprs]
        out += [["inv", ctx, u] for u in units]
    out += [["eval", head, "1"] for head in HEADS]
    return out + loop_argvs() + crt_argvs() + irreducibility_argvs()


def _signed(rng, units):
    """a + b u + ... with small ints, as the Quad and H contexts print."""
    c = [rng.randint(-3, 3) for _ in range(len(units) + 1)]
    return str(c[0]) + "".join(f"{x:+d}*{u}" for x, u in zip(c[1:], units))


def _frac(rng):
    num = _signed(rng, "s")
    den = _signed(rng, "s")
    return num if den.startswith("0+0") else f"({num})/({den})"


# base literal -> a random coefficient text, for the bases with no
# kernel() record, whose polynomial and series rings run the loops
LOOP_BASES = {
    "Q": lambda rng: f"{rng.randint(-9, 9)}/{rng.randint(1, 5)}",
    "Quad:-1": lambda rng: _signed(rng, "i"),
    "H": lambda rng: _signed(rng, "ijk"),
    "Mat(Zn:4,2)": lambda rng: "[[{},{}],[{},{}]]".format(
        *(rng.randrange(4) for _ in range(4))),
    "Frac(Quad:-5)": _frac,
    "Quot(Poly(Q),[-2,0,1])": lambda rng: "[{}/{},{}]".format(
        rng.randint(-4, 4), rng.randint(1, 3), rng.randint(-2, 2)),
}


def loop_argvs():
    """eval, series-invert, gcd and xgcd over LOOP_BASES, from a generator
    of their own, so the argvs above keep their order."""
    rng = random.Random(SEED + 1)

    def coeffs(base, n):
        return "[" + ",".join(LOOP_BASES[base](rng) for _ in range(n)) + "]"

    out = [["eval", "Series(Frac(Quad:-5),2)", "[1,2/(1+s)]-[0,2/(1+s)]"]]
    for base in LOOP_BASES:
        for _ in range(6):
            a, b, c = (coeffs(base, rng.randint(1, 5)) for _ in range(3))
            expr = rng.choice([f"{a}*{b}+{c}", f"{a}^2-{b}", f"{a}-{a}",
                               f"0-{a}+{b}"])
            out.append(["eval", f"Poly({base})", expr])
        for _ in range(5):
            prec = rng.randint(1, 12)
            a, b = (coeffs(base, rng.randint(1, prec)) for _ in range(2))
            expr = rng.choice([f"{a}*{b}", f"{a}+{b}", f"{a}-{b}", f"0-{a}",
                               f"{a}^2*{b}"])
            out.append(["eval", f"Series({base},{prec})", expr])
        for _ in range(4):
            prec = rng.randint(1, 12)
            f = coeffs(base, rng.randint(1, prec))
            if rng.random() < 0.5:
                out.append(["series-invert", base, f"{f[:-1]};{prec}]"])
            else:
                out.append(["series-invert", f"Series({base},{prec})", f])
        for _ in range(5):
            a, b = (coeffs(base, rng.randint(1, 5)) for _ in range(2))
            if rng.random() < 0.5:
                c = coeffs(base, rng.randint(2, 4))
                a, b = f"{a}*{c}", f"{b}*{c}"
            out.append([rng.choice(["gcd", "xgcd"]), f"Poly({base})", a, b])
    return out



def _word(text):
    """text as an argv word: one that starts with "-" reads as an option,
    so it is written as 0 minus the rest."""
    return f"0{text}" if text.startswith("-") else text


def _z_modulus(rng):
    """Mostly prime powers, so that a system is often but not always
    comaximal; sometimes 0, a unit, a negative or a large modulus."""
    r = rng.random()
    if r < 0.06:
        return 0
    if r < 0.11:
        return rng.choice([1, -1])
    if r < 0.16:
        return rng.randint(10**5, 10**6)
    m = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 25, 27, 31]) \
        if r < 0.7 else rng.randint(2, 60)
    return -m if rng.random() < 0.1 else m


def _dense(rng, coeff, lo, hi):
    """A coefficient list of degree lo..hi with a lead of 1."""
    return "[" + ",".join([coeff(rng) for _ in range(rng.randint(lo, hi))]
                          + ["1"]) + "]"


def _q(rng):
    return f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"


# base literal -> (a residue text, a modulus text) of crt over that base
CRT_BASES = {
    "Quad:-1": (lambda rng: _signed(rng, "i"),
                lambda rng: _signed(rng, "i")),
    "Poly(Fp:7)": (lambda rng: _dense(rng, lambda r: str(r.randrange(7)),
                                      0, 3),
                   lambda rng: _dense(rng, lambda r: str(r.randrange(7)),
                                      1, 3)),
    "Poly(Q)": (lambda rng: _dense(rng, _q, 0, 3),
                lambda rng: _dense(rng, _q, 1, 3)),
}
# field literal -> a random element text, for interpolate
INTERPOLATE_BASES = {
    "Fp:7": lambda rng: str(rng.randrange(7)),
    "Fp:101": lambda rng: str(rng.randrange(101)),
    "Q": _q,
    "QuadF:2": lambda rng: f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
                           f"{rng.randint(-3, 3):+d}*s",
    "Quot(Fp:2,[1,1,1])": lambda rng: _bits(rng, 2),
}
# moduli of Quot(Q, m): x^4 + 1, x^4 + 2, x^4 + 4, x^5 + 3 and x^2 + 1
Q_MODULI = ["[1,0,0,0,1]", "[2,0,0,0,1]", "[4,0,0,0,1]", "[3,0,0,0,0,1]",
            "[1,0,1]"]


def crt_argvs():
    """crt, interpolate and the quotients of Q[x], from a generator of
    their own, so the argvs above keep their order.  Every argv names
    its pairs: crt with none reads them from stdin."""
    rng = random.Random(SEED + 2)
    out = []
    for _ in range(40):
        pairs = [f"{_word(str(rng.randint(-50, 50)))}:"
                 f"{_word(str(_z_modulus(rng)))}"
                 for _ in range(rng.randint(2, 6))]
        out.append(["crt", "Z", *pairs])
    for _ in range(10):  # pairwise coprime: powers of distinct primes
        primes = rng.sample([2, 3, 5, 7, 11, 13, 17, 19], rng.randint(2, 6))
        out.append(["crt", "Z", *(f"{rng.randint(0, 10**4)}:"
                                  f"{p ** rng.randint(1, 4)}" for p in primes)])
    for base, (residue, modulus) in CRT_BASES.items():
        for _ in range(10):
            moduli = [modulus(rng) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.2:  # a planted shared factor
                moduli[-1] = f"({moduli[-1]})*({moduli[0]})"
            out.append(["crt", base, *(f"{_word(residue(rng))}:{m}"
                                       for m in moduli)])
    for base, elem in INTERPOLATE_BASES.items():
        for _ in range(5):
            nodes = [_word(elem(rng)) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.2:
                nodes.append(rng.choice(nodes))
            out.append(["interpolate", base,
                        *(f"{x}:{_word(elem(rng))}" for x in nodes)])
    for base in ("Z", "Zn:12", "Quad:-1"):
        out.append(["interpolate", base, "1:2", "3:4"])
    for m in Q_MODULI:
        out.append(["eval", f"Frac(Quot(Q,{m}))", "1/x"])
        out.append(["eval", f"Frac(Quot(Q,{m}))", "(x+1)/(x^2+2)"])
        for _ in range(2):
            c = _dense(rng, lambda r: r.choice(["x", "1/2", "x^2-1"]), 1, 2)
            a, b = (_dense(rng, lambda r: r.choice(["x", "1", "2/3", "x^3+x"]),
                           1, 2) for _ in range(2))
            out.append(["gcd", f"Poly(Quot(Q,{m}))", f"{a}*{c}", f"{b}*{c}"])
    return out


def _times(a, b):
    """The product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _shifted(coeffs, a):
    """The coefficients of f(x + a), by Horner in x + a."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        out = _times(out, [a, 1])
        out[0] += c
    return out


def _list(coeffs):
    return "[" + ",".join(str(c) for c in coeffs) + "]"


# (p, a monic quartic irreducible mod p): a lift of one to Z is
# irreducible over Q, which the reduction stage can prove
QUARTICS_MOD_P = [(2, [1, 1, 0, 0, 1]), (2, [1, 1, 1, 1, 1]),
                  (3, [2, 1, 0, 0, 1]), (3, [2, 2, 0, 0, 1]),
                  (5, [2, 0, 0, 0, 1]), (5, [3, 0, 0, 0, 1])]
# each rational-root candidate costs a Horner pass: N/M + x^4 with
# N = 2^20 3^12 5^8, M = 7^10 11^8 13^8 has too many to try, and so
# has 160030080000 + 7016830618369 x^4
COSTLY_ROOT_SEARCHES = [
    "[217678233600000000/49393374747432745372392049,0,0,0,1]",
    "[160030080000,0,0,0,7016830618369]",
]


def irreducibility_argvs():
    """irreducible, sqfree, content and primassoc over Z and Q, and
    irreducible over Quad:-1, Quad:-5 and Quad:-7, from a generator of
    their own, so the argvs above keep their order.  The integer
    polynomials carry a planted rational root, a content above 1, an
    Eisenstein polynomial shifted by x -> x - a, or a lift of a quartic
    irreducible mod a small prime; x^4 - 10x^2 + 1 is irreducible and
    reducible mod every prime, so no stage decides it.  Each one is
    also given over Q, times a random rational."""
    rng = random.Random(SEED + 3)

    def ints(n):
        return [rng.randint(-9, 9) for _ in range(n)] + [1]

    polys = []
    for _ in range(8):  # the root s/q times a cofactor
        s, q = rng.randint(-9, 9), rng.randint(1, 4)
        polys.append(_times([-s, q], ints(rng.randint(1, 3))))
    for _ in range(6):  # a content c > 1
        c = rng.choice([2, 3, 4, 6, 10])
        polys.append([c * x for x in ints(rng.randint(1, 5))])
    for _ in range(6):  # Eisenstein at p, then x -> x - a
        p = rng.choice([2, 3, 5, 7])
        g = [p * rng.randint(-3, 3) for _ in range(rng.randint(2, 6))] + [1]
        g[0] = p * rng.choice([1, -1, p + 1])
        polys.append(_shifted(g, -rng.randint(1, 4)))
    for _ in range(6):  # a lift of a quartic irreducible mod p
        p, m = rng.choice(QUARTICS_MOD_P)
        polys.append([c + p * rng.randint(-3, 3) for c in m[:-1]] + [1])
    polys.append([1, 0, -10, 0, 1])
    out = []
    for f in polys:
        z = rng.choice(["Z", "Poly(Z)"])
        scale = Fraction(rng.choice([1, -1]) * rng.randint(1, 6),
                         rng.randint(1, 6))
        fq = _list(Fraction(c) * scale for c in f)
        out += [["irreducible", z, _list(f)], ["irreducible", "Q", fq],
                ["content", z, _list(f)], ["primassoc", z, _list(f)],
                ["primassoc", rng.choice(["Q", "Poly(Q)"]), fq]]
    for _ in range(10):  # square factors over Z and Q
        a, b = (_list(ints(rng.randint(1, 2))) for _ in range(2))
        ctx = rng.choice(["Z", "Poly(Z)", "Q"])
        c = rng.choice(["", f"*{rng.randint(2, 6)}", "/2"][:2 + (ctx == "Q")])
        out.append(["sqfree", ctx, f"{a}^{rng.randint(2, 3)}*{b}{c}"])
    for d, sym in (("-1", "i"), ("-5", "s"), ("-7", "s")):
        for _ in range(8):
            a, b = rng.randint(-12, 12), rng.randint(-6, 6)
            out.append(["irreducible", f"Quad:{d}", _word(f"{a}{b:+d}*{sym}")])
    out += [["irreducible", "Q", f] for f in COSTLY_ROOT_SEARCHES]
    return out


# (ctx, polynomial) operands of the polynomial verbs: over Z and Q, and
# over the bases each verb refuses
GATED = [
    ("Z", "[6,-4,2]"), ("Poly(Z)", "[0,3,0,9]"), ("Z", "[-2,0,1]^2*[1,1]"),
    ("Poly(Z)", "0"), ("Z", "[5]"), ("Poly(Z)", "[1,-3,3,-1]"),
    ("Z", "[2,0,0,0,0,1]"), ("Q", "[1/2,3/4,1]"), ("Poly(Q)", "[2/3,0,-4/9]"),
    ("Q", "[-1/4,0,1]^2*[1,1]"), ("Poly(Q)", "0"), ("Q", "[3/5]"),
    ("Q", "[2,1/3,0,7]"), ("Zn:12", "[2,4,6]"), ("Poly(Zn:12)", "[3,0,9]"),
    ("Quad:-1", "3+i"), ("Poly(Quad:-1)", "[1,i]"), ("H", "[1,i]"),
    ("Poly(H)", "[j,k]"),
]
QUADS = {
    "Quad:-1": ["3", "1+i", "3+2*i", "2", "5", "0", "i", "7+i", "4+4*i"],
    "Quad:-5": ["2", "3", "1+s", "6", "7", "0", "0-1", "1+2*s", "21", "3+s"],
}
# ctx -> (eval expressions with negative powers or division, inv operands)
INVERSES = {
    "Poly(Zn:4)": (["(1+2*x)^-1", "(1+2*x+2*x^3)^-3", "[3,2,0,2]^-1",
                    "1/(3+2*x)", "(x+1)/(1+2*x^2)", "x^-1", "(2+x)^-1",
                    "1/(2*x)"],
                   ["1+2*x", "3+2*x+2*x^2", "x", "2", "[1,2,2,2,2]"]),
    "Poly(Zn:8)": (["(1+2*x)^-1", "(3+4*x+2*x^2)^-2", "[5,6,4]^-1",
                    "(1+x)/(1+4*x^3)", "(1+x)^-1", "[1,2,0,2]^-5"],
                   ["1+2*x", "3+4*x^2+6*x", "1+x", "[5,4,4]"]),
    "Poly(Poly(Zn:4))": (["(1+2*x)^-1", "[[1,2],[2]]^-1", "[[3],[0,2]]^-2",
                          "1/[[1],[2,2]]", "[[0,1],[2]]^-1",
                          "[[1,2],[0,1]]^-1"],
                         ["[[1,2],[2]]", "[[3],[0,2]]", "[[0,1]]"]),
    "Q": (["(2/3)^-2", "1/(5/7)", "3/4/5", "0^-1", "(0-1/2)^-3", "7/0"],
          ["2/3", "0", "-5"]),
    "Quad:-1": (["i^-1", "(1+i)^-1", "1/i", "(0-1)^-3", "3/(2+i)", "i^-3"],
                ["i", "1+i", "0-1"]),
    "H": (["i^-1", "(1+i+j+k)^-1", "(2*j)^-2", "1/k", "i/j", "0^-1"],
          ["1+i+j+k", "2*j", "0"]),
    "Frac(Z)": (["(2/3)^-1", "(4/6)^-2", "1/5", "(0-3)^-3", "(1/2)/(3/4)",
                 "0^-1"],
                ["2/3", "0", "5"]),
    "Mat(Zn:4,2)": (["[[1,2],[0,1]]^-1", "[[1,1],[1,0]]^-3",
                     "1/[[3,0],[0,1]]", "[[2,0],[0,1]]^-1",
                     "[[1,2],[2,1]]^-2"],
                    ["[[1,2],[0,1]]", "[[2,0],[0,1]]", "[[1,1],[1,0]]"]),
    "Prod(Z,Zn:6)": (["(1,5)^-1", "(0-1,1)^-3", "1/(1,5)", "(2,1)^-1",
                      "(1,2)^-1"],
                     ["(1,5)", "(2,1)", "(0-1,1)"]),
}
HEADS = ["Poly(Z,Q)", "Frac()", "Series(Q)", "Series(Q,2,3)", "Mat(Z)",
         "Mat(Z,x)", "Poly()", "Frac(Z,Q)", "Series(Q,x)", "Mat(Z,2,3)",
         "Quot(Z)", "Prod(Z)"]


def run(argv):
    """(exit code, stdout, stderr) of main(argv), in this process."""
    from ringkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _line(argv, code, out, err):
    sha = [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
    return "\t".join([json.dumps(argv), str(code), *sha])


def digest_line(argv):
    return _line(argv, *run(argv))


def print_changed():
    """Print each argv whose line is not in DIGESTS, with its exit code,
    stdout and stderr."""
    frozen = set(DIGESTS.read_text().splitlines())
    for argv in argvs():
        code, out, err = run(argv)
        if _line(argv, code, out, err) not in frozen:
            print(json.dumps(argv), f"exit {code}", sep="\n")
            for name, text in (("stdout", out), ("stderr", err)):
                print(f"{name}: " + text.rstrip("\n").replace("\n", "\n  "))


def main():
    if sys.argv[1:] == ["--changed"]:
        return print_changed()
    lines = [digest_line(argv) for argv in argvs()]
    DIGESTS.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} argvs frozen in {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
