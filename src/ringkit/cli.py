"""Command-line front end: one verb, one canonical result line.

Exit codes: 0 on success, 1 for mathematical errors and any other
failure (reported as the error class name plus message on stderr), 2
for parse and usage errors.
--json wraps the same result text in a single-line envelope whose keys
appear in a fixed order, so golden transcripts stay byte-stable.

Operands beginning with '-' that are not plain numbers should be
preceded by '--' (the usual argparse convention) or rewritten, e.g.
"0-x" for "-x".
"""

import argparse
import json
import sys

from .algebra import classify
from .errors import ParseError
from .euclid import crt_solve, euclid_gcd, extended_gcd, lcm
from .factor import (
    content,
    factor_integer,
    factor_poly_fp,
    irreducibility_pipeline,
    primitive_associate,
    squarefree_part,
    DEFAULT_PRIME_BOUND,
    DEFAULT_SHIFT_BOUND,
)
from .literals import parse_context
from .matrix import MatrixRing, cramer_solve, mat_inverse
from .number_rings import (
    HH,
    ZZ,
    QuadIntRing,
    QuadraticRing,
    euler_phi,
    quad_norm,
)
from .parsing import eval_expr, group_items, split_top
from .poly import PolyRing, lagrange_interpolate
from .quotient import QuotientRing, ideal_divisor_lattice
from .series import (
    SeriesRing,
    laurent_from_fraction,
    laurent_show,
    series_literal,
    ts_invert,
)


def build_parser():
    p = argparse.ArgumentParser(
        prog="ringkit",
        description="Exact ring arithmetic: Euclidean algorithms, CRT, "
                    "polynomial and series tools, factorization "
                    "certificates.")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable result envelope")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, *operands, **kw):
        ">>> one positional block per operand name"
        s = sub.add_parser(name, **kw)
        for op in operands:
            if op.endswith("..."):
                s.add_argument(op[:-3], nargs="*")
            else:
                s.add_argument(op)
        return s

    verb("eval", "ctx", "expr", help="evaluate an expression in a context")
    verb("gcd", "ctx", "a", "b")
    verb("xgcd", "ctx", "a", "b")
    verb("lcm", "ctx", "a", "b")
    verb("inv", "ctx", "x")
    verb("crt", "ctx", "pairs...",
         help="residue:modulus pairs, or 'b mod m' lines on stdin")
    verb("phi", "n")
    verb("factor-int", "n")
    verb("factor-poly", "ctx", "poly")
    verb("content", "ctx", "poly")
    verb("primassoc", "ctx", "poly")
    verb("sqfree", "ctx", "operand",
         help="squarefree part of an integer or polynomial")
    s = verb("irreducible", "ctx", "poly")
    s.add_argument("--prime-bound", type=int, default=DEFAULT_PRIME_BOUND)
    s.add_argument("--shift-bound", type=int, default=DEFAULT_SHIFT_BOUND)
    verb("interpolate", "ctx", "points...",
         help="node:value pairs over a field")
    s = verb("series-invert", "ctx", "series")
    s.add_argument("--precision", type=int, default=None)
    s = verb("laurent", "ctx", "num", "den")
    s.add_argument("--precision", type=int, default=None)
    verb("quad-norm", "ctx", "x")
    verb("quat-mul", "a", "b")
    verb("classify", "ctx")
    verb("mat-inv", "ctx", "matrix")
    verb("cramer", "ctx", "matrix", "column")
    verb("quot-eval", "ctx", "expr")
    verb("ideal-lattice", "n")
    return p


def _ctx_elem(ctx_text, elem_text):
    ctx = parse_context(ctx_text)
    return ctx, ctx.parse_element(elem_text)


def _poly_ctx(ctx_text):
    """The ctx operand of poly verbs names either the poly ring or its
    coefficients."""
    ctx = parse_context(ctx_text)
    if isinstance(ctx, (PolyRing, QuadIntRing)):
        return ctx
    return PolyRing(ctx)


def _series_elem(ctx, text, flag_precision):
    """Resolve precision: literal ';N', then --precision, then the
    context's own."""
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


def _int_arg(text, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}")


# ------------------------------------------------------------- handlers

def _h_eval(args):
    ctx = parse_context(args.ctx)
    val = eval_expr(ctx, args.expr, ctx.symbols())
    return {"context": ctx.name(), "result": ctx.show(val)}


def _h_gcd(args):
    ctx = parse_context(args.ctx)
    a, b = ctx.parse_element(args.a), ctx.parse_element(args.b)
    return {"context": ctx.name(), "result": repr(euclid_gcd(a, b))}


def _h_xgcd(args):
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


def _h_lcm(args):
    ctx = parse_context(args.ctx)
    a, b = ctx.parse_element(args.a), ctx.parse_element(args.b)
    return {"context": ctx.name(), "result": repr(lcm(a, b))}


def _h_inv(args):
    ctx, x = _ctx_elem(args.ctx, args.x)
    return {"context": ctx.name(), "result": repr(x.inverse())}


def _h_crt(args):
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


def _h_phi(args):
    n = _int_arg(args.n, "integer")
    return {"context": None, "result": str(euler_phi(n))}


def _h_factor_int(args):
    n = _int_arg(args.n, "integer")
    return {"context": "Z", "result": str(factor_integer(n))}


def _h_factor_poly(args):
    ctx = _poly_ctx(args.ctx)
    f = ctx.parse_element(args.poly)
    return {"context": ctx.name(), "result": str(factor_poly_fp(f))}


def _h_content(args):
    ctx = _poly_ctx(args.ctx)
    f = ctx.parse_element(args.poly)
    return {"context": ctx.name(), "result": str(content(f))}


def _h_primassoc(args):
    ctx = _poly_ctx(args.ctx)
    f = ctx.parse_element(args.poly)
    return {"context": ctx.name(), "result": repr(primitive_associate(f))}


def _h_sqfree(args):
    ctx = parse_context(args.ctx)
    text = args.operand.strip()
    if not text.startswith("[") and ctx == ZZ:
        return {"context": "Z",
                "result": str(squarefree_part(_int_arg(text, "integer")))}
    f = _poly_ctx(args.ctx).parse_element(args.operand)
    return {"context": f.ctx.name(), "result": repr(squarefree_part(f))}


def _h_irreducible(args):
    ctx = _poly_ctx(args.ctx)
    f = ctx.parse_element(args.poly)
    verdict = irreducibility_pipeline(
        f, prime_bound=args.prime_bound, shift_bound=args.shift_bound)
    return {"context": ctx.name(), "result": verdict.serialize()}


def _h_interpolate(args):
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


def _h_series_invert(args):
    ctx = parse_context(args.ctx)
    f = _series_elem(ctx, args.series, args.precision)
    return {"context": f.ctx.name(), "result": repr(ts_invert(f))}


def _h_laurent(args):
    ctx = parse_context(args.ctx)
    num = _series_elem(ctx, args.num, args.precision)
    den = _series_elem(ctx, args.den, args.precision)
    ls = laurent_from_fraction(num, den)
    return {"context": num.ctx.base.name(), "result": laurent_show(ls)}


def _h_quad_norm(args):
    ctx, x = _ctx_elem(args.ctx, args.x)
    if not isinstance(ctx, QuadraticRing):
        raise ParseError("quad-norm needs a Quad: or QuadF: context")
    return {"context": ctx.name(), "result": str(quad_norm(x))}


def _h_quat_mul(args):
    a = HH.parse_element(args.a)
    b = HH.parse_element(args.b)
    return {"context": "H", "result": repr(a * b)}


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
    ctx = parse_context(ctx_text)
    if isinstance(ctx, MatrixRing):
        return ctx.parse_element(matrix_text)
    rows = group_items(matrix_text)
    if not rows:
        raise ParseError(f"expected [[...],[...]], got {matrix_text!r}")
    return MatrixRing(ctx, len(rows)).parse_element(matrix_text)


def _h_mat_inv(args):
    m = _matrix_in(args.ctx, args.matrix)
    return {"context": m.ctx.name(), "result": repr(mat_inverse(m))}


def _h_cramer(args):
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


def _h_quot_eval(args):
    ctx = parse_context(args.ctx)
    if not isinstance(ctx, QuotientRing):
        raise ParseError("quot-eval needs a Quot(...) context")
    val = eval_expr(ctx, args.expr, ctx.symbols())
    return {"context": ctx.name(), "result": ctx.show(val)}


def _h_ideal_lattice(args):
    n = _int_arg(args.n, "integer")
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


_HANDLERS = {
    "eval": _h_eval,
    "gcd": _h_gcd,
    "xgcd": _h_xgcd,
    "lcm": _h_lcm,
    "inv": _h_inv,
    "crt": _h_crt,
    "phi": _h_phi,
    "factor-int": _h_factor_int,
    "factor-poly": _h_factor_poly,
    "content": _h_content,
    "primassoc": _h_primassoc,
    "sqfree": _h_sqfree,
    "irreducible": _h_irreducible,
    "interpolate": _h_interpolate,
    "series-invert": _h_series_invert,
    "laurent": _h_laurent,
    "quad-norm": _h_quad_norm,
    "quat-mul": _h_quat_mul,
    "classify": _h_classify,
    "mat-inv": _h_mat_inv,
    "cramer": _h_cramer,
    "quot-eval": _h_quot_eval,
    "ideal-lattice": _h_ideal_lattice,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    try:
        payload = _HANDLERS[args.verb](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a RingError, or as a last resort any other
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
