"""The ring-context literal grammar shared by the CLI and tests.

  Z | Q | H | Zn:<n> | Fp:<p> | Quad:<d> | QuadF:<d>
  Poly(ctx) | Series(ctx,N) | Frac(ctx) | Quot(ctx,modulus)
  Mat(ctx,n) | Prod(ctx,ctx,...)

Fp: insists on a prime modulus where Zn: takes any n >= 1, so a context
literal documents whether field structure is being relied on.  Any
mathematically invalid parameter inside a literal (composite Fp, a
non-squarefree d, a unit modulus) is reported as a parse error: the
literal, not the arithmetic, is what is wrong.  A literal over the work
budget (a context too wide, a modulus too costly to test) raises
TooLarge, as the same work does anywhere else.
"""

import importlib

from .errors import ParseError, RingError, TooLarge
from .number_rings import (
    HH,
    QQ,
    ZZ,
    ModRing,
    QuadFieldRing,
    QuadIntRing,
)


# heads of one context argument, and of a context and one int: the
# module and class each names, imported when a literal uses the head
_UNARY = {"Poly": ("poly", "PolyRing"), "Frac": ("fracfield", "FracField")}
_SIZED = {"Series": ("series", "SeriesRing", "precision"),
          "Mat": ("matrix", "MatrixRing", "dimension")}


def _head(module, name):
    return getattr(importlib.import_module("." + module, __package__), name)


def _int(text, what):
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}")


def parse_context(text):
    """Parse a ring-context literal into a RingContext."""
    try:
        return _parse(text.strip())
    except (ParseError, TooLarge):
        raise
    except RingError as e:
        raise ParseError(str(e))


def _parse(text):
    from .parsing import split_top

    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text == "H":
        return HH
    if text.startswith("Zn:"):
        return ModRing(_int(text[3:], "modulus"))
    if text.startswith("Fp:"):
        ctx = ModRing(_int(text[3:], "modulus"))
        if not ctx.is_field:
            raise ParseError(f"Fp: needs a prime modulus, got {ctx.n}")
        return ctx
    if text.startswith("QuadF:"):
        return QuadFieldRing(_int(text[6:], "discriminant"))
    if text.startswith("Quad:"):
        return QuadIntRing(_int(text[5:], "discriminant"))
    head, sep, rest = text.partition("(")
    if not sep or not text.endswith(")"):
        raise ParseError(f"unknown context literal {text!r}")
    args = split_top(rest[:-1], ",")
    if head in _UNARY:
        if len(args) != 1:
            raise ParseError(f"{head} takes one context argument")
        return _head(*_UNARY[head])(_parse(args[0].strip()))
    if head in _SIZED:
        module, name, what = _SIZED[head]
        if len(args) != 2:
            raise ParseError(f"{head} takes a context and a {what}")
        inner = _parse(args[0].strip())
        return _head(module, name)(inner, _int(args[1], what))
    if head == "Quot":
        from .quotient import QuotientRing

        if len(args) != 2:
            raise ParseError("Quot takes a context and a modulus literal")
        base = _parse(args[0].strip())
        mod = args[1].strip()
        # a list modulus the base refuses names a polynomial over the
        # base, so Quot(Fp:2,[1,1,1]) is the quotient of Fp:2[x]
        try:
            m = base.parse(mod)
        except ParseError:
            if not mod.startswith("["):
                raise
            from .poly import PolyRing

            base = PolyRing(base)
            m = base.parse(mod)
        return QuotientRing(base, m)
    if head == "Prod":
        from .algebra import ProductRing

        if len(args) < 2:
            raise ParseError("Prod takes at least two context arguments")
        return ProductRing(_parse(a.strip()) for a in args)
    raise ParseError(f"unknown context literal {text!r}")
