"""Command-line front end: one verb, one canonical result line.

Exit codes: 0 on success, 1 for mathematical errors and any other
failure (reported as the error class name plus message on stderr), 2
for parse and usage errors.
--json wraps the same result text in a single-line envelope whose keys
appear in a fixed order, so golden transcripts stay byte-stable.

Every operand is read by its context's parse, so it may be any
expression eval reads there: inv Zn:40 10+3 inverts 13.  Operands
beginning with '-' that are not plain numbers should be
preceded by '--' (the usual argparse convention) or rewritten, e.g.
"0-x" for "-x".

Each handler imports the payload modules it runs (factor, poly, euclid,
matrix, series, quotient) when it runs, and parse_context imports the
module of each head it reads, so a process compiles only what its verb
and its context literal use: phi 16 never loads poly.
"""

import argparse
import json
import sys

from .algebra import classify
from .errors import ParseError, TooLarge
from .intutil import (
    DEFAULT_PRIME_BOUND,
    DEFAULT_SHIFT_BOUND,
    MAX_DIGITS,
    ideal_divisor_lattice,
)
from .literals import parse_context
from .number_rings import (
    HH,
    ZZ,
    QuadIntRing,
    QuadraticRing,
    euler_phi,
    factor_integer,
    quad_norm,
)
from .parsing import group_items, split_top


# verb name -> (operand names, add_parser keywords, int options, handler)
_VERBS = {}


def verb(name, *operands, help=None, **options):
    """Register the decorated handler for name: one positional per
    operand ('x...' takes any number), and one int --option per keyword,
    with the keyword's value as its default."""
    def register(handler):
        kw = {} if help is None else {"help": help}
        _VERBS[name] = (operands, kw, options, handler)
        return handler
    return register


def build_parser():
    p = argparse.ArgumentParser(
        prog="ringkit",
        description="Exact ring arithmetic: Euclidean algorithms, CRT, "
                    "polynomial and series tools, factorization "
                    "certificates.")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable result envelope")
    sub = p.add_subparsers(dest="verb", required=True)
    for name, (operands, kw, options, _) in _VERBS.items():
        s = sub.add_parser(name, **kw)
        for op in operands:
            if op.endswith("..."):
                s.add_argument(op[:-3], nargs="*")
            else:
                s.add_argument(op)
        for opt, default in options.items():
            s.add_argument("--" + opt.replace("_", "-"), type=int,
                           default=default)
    return p


def _ctx_elem(ctx_text, elem_text):
    ctx = parse_context(ctx_text)
    return ctx, ctx.parse_element(elem_text)


def _poly_ctx(ctx_text):
    """The ctx operand of poly verbs names either the poly ring or its
    coefficients."""
    from .poly import PolyRing

    ctx = parse_context(ctx_text)
    if isinstance(ctx, (PolyRing, QuadIntRing)):
        return ctx
    return PolyRing(ctx)


def _series_elem(ctx, text, flag_precision):
    """Resolve precision: literal ';N', then --precision, then the
    context's own."""
    from .series import SeriesRing, series_literal

    literal = series_literal(text)
    prec = literal[1] if literal else None
    if prec is None:
        prec = flag_precision
    if prec is None and isinstance(ctx, SeriesRing):
        prec = ctx.prec
    if prec is None:
        raise ParseError(
            "series literal needs ';N', --precision, or a Series context")
    base = ctx.base if isinstance(ctx, SeriesRing) else ctx
    sctx = SeriesRing(base, prec)
    return sctx.parse_element(text)


# ------------------------------------------------------------- handlers

@verb("eval", "ctx", "expr", help="evaluate an expression in a context")
def _h_eval(args):
    ctx = parse_context(args.ctx)
    if args.verb == "quot-eval":
        from .quotient import QuotientRing

        if not isinstance(ctx, QuotientRing):
            raise ParseError("quot-eval needs a Quot(...) context")
    return {"context": ctx.name(), "result": ctx.show(ctx.parse(args.expr))}


@verb("gcd", "ctx", "a", "b")
def _h_gcd(args):
    from .euclid import euclid_gcd

    ctx = parse_context(args.ctx)
    a, b = ctx.parse_element(args.a), ctx.parse_element(args.b)
    return {"context": ctx.name(), "result": repr(euclid_gcd(a, b))}


@verb("xgcd", "ctx", "a", "b")
def _h_xgcd(args):
    from .euclid import extended_gcd

    ctx = parse_context(args.ctx)
    a, b = ctx.parse_element(args.a), ctx.parse_element(args.b)
    cert = extended_gcd(a, b)
    return {
        "context": ctx.name(),
        "result": f"{cert.g!r} {cert.x!r} {cert.y!r}",
        "g": repr(cert.g),
        "x": repr(cert.x),
        "y": repr(cert.y),
    }


@verb("lcm", "ctx", "a", "b")
def _h_lcm(args):
    from .euclid import lcm

    ctx = parse_context(args.ctx)
    a, b = ctx.parse_element(args.a), ctx.parse_element(args.b)
    return {"context": ctx.name(), "result": repr(lcm(a, b))}


@verb("inv", "ctx", "x")
def _h_inv(args):
    ctx, x = _ctx_elem(args.ctx, args.x)
    return {"context": ctx.name(), "result": repr(x.inverse())}


@verb("crt", "ctx", "pairs...",
      help="residue:modulus pairs, or 'b mod m' lines on stdin")
def _h_crt(args):
    from .euclid import crt_solve

    ctx = parse_context(args.ctx)
    raw_pairs = list(args.pairs)
    congs = []
    if raw_pairs:
        for item in raw_pairs:
            parts = split_top(item, ":")
            if len(parts) != 2:
                raise ParseError(f"expected residue:modulus, got {item!r}")
            congs.append((ctx.parse_element(parts[0]),
                          ctx.parse_element(parts[1])))
    else:
        for line in sys.stdin.read().splitlines():
            line = line.strip()
            if not line:
                continue
            b, sep, m = line.partition(" mod ")
            if not sep:
                raise ParseError(f"expected 'b mod m', got {line!r}")
            congs.append((ctx.parse_element(b.strip()),
                          ctx.parse_element(m.strip())))
    x, modulus = crt_solve(congs)
    return {
        "context": ctx.name(),
        "result": f"{x!r} mod {modulus!r}",
        "x": repr(x),
        "modulus": repr(modulus),
    }


@verb("phi", "n")
def _h_phi(args):
    return {"context": None, "result": str(euler_phi(ZZ.parse(args.n)))}


@verb("factor-int", "n")
def _h_factor_int(args):
    return {"context": "Z", "result": str(factor_integer(ZZ.parse(args.n)))}


def _poly_verb(name, fn):
    """Register name as factor.fn of one polynomial operand, printed by
    str."""
    def handler(args):
        from . import factor

        ctx = _poly_ctx(args.ctx)
        return {"context": ctx.name(), "result": str(
            getattr(factor, fn)(ctx.parse_element(args.poly)))}
    verb(name, "ctx", "poly")(handler)


_poly_verb("factor-poly", "factor_poly_fp")
_poly_verb("content", "content")
_poly_verb("primassoc", "primitive_associate")


@verb("sqfree", "ctx", "operand",
      help="squarefree part of an integer or polynomial")
def _h_sqfree(args):
    from .factor import squarefree_part

    ctx = parse_context(args.ctx)
    text = args.operand.strip()
    if not text.startswith("[") and ctx == ZZ:
        return {"context": "Z",
                "result": str(squarefree_part(ZZ.parse(text)))}
    f = _poly_ctx(args.ctx).parse_element(args.operand)
    return {"context": f.ctx.name(), "result": repr(squarefree_part(f))}


@verb("irreducible", "ctx", "poly", prime_bound=DEFAULT_PRIME_BOUND,
      shift_bound=DEFAULT_SHIFT_BOUND)
def _h_irreducible(args):
    from .factor import irreducibility_pipeline

    ctx = _poly_ctx(args.ctx)
    f = ctx.parse_element(args.poly)
    verdict = irreducibility_pipeline(
        f, prime_bound=args.prime_bound, shift_bound=args.shift_bound)
    return {"context": ctx.name(), "result": verdict.serialize()}


@verb("interpolate", "ctx", "points...",
      help="node:value pairs over a field")
def _h_interpolate(args):
    from .poly import lagrange_interpolate

    ctx = parse_context(args.ctx)
    points = []
    for item in args.points:
        parts = split_top(item, ":")
        if len(parts) != 2:
            raise ParseError(f"expected node:value, got {item!r}")
        points.append((ctx.parse_element(parts[0]),
                       ctx.parse_element(parts[1])))
    p = lagrange_interpolate(ctx, points)
    return {"context": ctx.name(), "result": repr(p)}


@verb("series-invert", "ctx", "series", precision=None)
def _h_series_invert(args):
    from .series import ts_invert

    ctx = parse_context(args.ctx)
    f = _series_elem(ctx, args.series, args.precision)
    return {"context": f.ctx.name(), "result": repr(ts_invert(f))}


@verb("laurent", "ctx", "num", "den", precision=None)
def _h_laurent(args):
    from .series import laurent_from_fraction, laurent_show

    ctx = parse_context(args.ctx)
    num = _series_elem(ctx, args.num, args.precision)
    den = _series_elem(ctx, args.den, args.precision)
    ls = laurent_from_fraction(num, den)
    return {"context": num.ctx.base.name(), "result": laurent_show(ls)}


@verb("quad-norm", "ctx", "x")
def _h_quad_norm(args):
    ctx, x = _ctx_elem(args.ctx, args.x)
    if not isinstance(ctx, QuadraticRing):
        raise ParseError("quad-norm needs a Quad: or QuadF: context")
    return {"context": ctx.name(), "result": str(quad_norm(x))}


@verb("quat-mul", "a", "b")
def _h_quat_mul(args):
    a = HH.parse_element(args.a)
    b = HH.parse_element(args.b)
    return {"context": "H", "result": repr(a * b)}


@verb("classify", "ctx")
def _h_classify(args):
    ctx = parse_context(args.ctx)
    c = classify(ctx)

    def block(elems):
        return "[" + ",".join(repr(e) for e in elems) + "]"

    return {
        "context": ctx.name(),
        "result": (f"units={block(c.units)} "
                   f"zero_divisors={block(c.zero_divisors)} "
                   f"nilpotents={block(c.nilpotents)} "
                   f"idempotents={block(c.idempotents)}"),
        "units": [repr(e) for e in c.units],
        "zero_divisors": [repr(e) for e in c.zero_divisors],
        "nilpotents": [repr(e) for e in c.nilpotents],
        "idempotents": [repr(e) for e in c.idempotents],
    }


def _matrix_in(ctx_text, matrix_text):
    from .matrix import MatrixRing

    ctx = parse_context(ctx_text)
    if isinstance(ctx, MatrixRing):
        return ctx.parse_element(matrix_text)
    rows = group_items(matrix_text)
    if not rows:
        raise ParseError(f"expected [[...],[...]], got {matrix_text!r}")
    return MatrixRing(ctx, len(rows)).parse_element(matrix_text)


@verb("mat-inv", "ctx", "matrix")
def _h_mat_inv(args):
    from .matrix import mat_inverse

    m = _matrix_in(args.ctx, args.matrix)
    return {"context": m.ctx.name(), "result": repr(mat_inverse(m))}


@verb("cramer", "ctx", "matrix", "column")
def _h_cramer(args):
    from .matrix import cramer_solve

    m = _matrix_in(args.ctx, args.matrix)
    base = m.ctx.base
    items = group_items(args.column)
    if not items:
        raise ParseError(f"expected a column [...], got {args.column!r}")
    column = [base.parse_element(x) for x in items]
    xs = cramer_solve(m, column)
    return {
        "context": m.ctx.name(),
        "result": "[" + ",".join(repr(x) for x in xs) + "]",
        "solution": [repr(x) for x in xs],
    }


# eval's body, which refuses a context that is not a quotient; registered
# here so the verbs keep their order in --help
verb("quot-eval", "ctx", "expr")(_h_eval)


@verb("ideal-lattice", "n")
def _h_ideal_lattice(args):
    n = ZZ.parse(args.n)
    lattice = ideal_divisor_lattice(n)
    divisors = [d for d, _, _ in lattice]
    maximal = [d for d, _, mx in lattice if mx]
    prime = [d for d, pr, _ in lattice if pr]
    return {
        "context": f"Zn:{n}",
        "result": (f"ideals: {','.join(map(str, divisors))} "
                   f"prime: {','.join(map(str, prime))} "
                   f"maximal: {','.join(map(str, maximal))}"),
        "ideals": divisors,
        "prime": prime,
        "maximal": maximal,
    }


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        sys.set_int_max_str_digits(MAX_DIGITS)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    try:
        payload = _VERBS[args.verb][-1](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a RingError, or as a last resort any other
        if "integer string conversion" in str(e):  # str() past MAX_DIGITS
            e = TooLarge(f"a result of more than {MAX_DIGITS} digits")
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    if args.json:
        envelope = {"verb": args.verb}
        envelope.update(payload)
        print(json.dumps(envelope))
    else:
        print(payload["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
