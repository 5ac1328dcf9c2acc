"""Context literals: the textual grammar that names every ring the toolkit builds."""

import pytest

from ringkit import RingError, parse_context
from ringkit.algebra import OverBase
from ringkit.errors import ParseError, TooLarge
from ringkit.poly import PolyRing

from test_algebra import FLAG_TABLE, _build


CANONICAL = [
    "Z",
    "Q",
    "H",
    "Fp:7",
    "Zn:12",
    "Zn:1",
    "Quad:-1",
    "Quad:2",
    "Quad:-5",
    "QuadF:5",
    "Poly(Q)",
    "Poly(Fp:3)",
    "Series(Fp:5,8)",
    "Frac(Poly(Fp:5))",
    "Frac(Z)",
    "Quot(Z,12)",
    "Mat(Zn:9,2)",
    "Prod(Z,Zn:6)",
    "Mat(Quot(Poly(Fp:2),x^2+x+1),2)",
    "Series(Frac(Poly(Fp:3)),5)",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_canonical_names_round_trip(text):
    ctx = parse_context(text)
    assert ctx.name() == text
    again = parse_context(ctx.name())
    assert again.name() == text


def test_whitespace_is_tolerated():
    assert parse_context(" Prod( Z , Zn:6 ) ").name() == "Prod(Z,Zn:6)"


def test_quotients_of_scalar_contexts_by_polynomial_literals_lift_the_base():
    ctx = parse_context("Quot(Fp:2,[1,1,1])")
    assert ctx.name() == "Quot(Poly(Fp:2),x^2+x+1)"
    assert ctx.is_field
    assert ctx.cardinality() == 4
    assert parse_context("Quot(Q,[1,1])").name() == "Quot(Poly(Q),x+1)"
    assert parse_context("Quot(Poly(Fp:2),[1,1,1])") == ctx


def test_rejected_scalar_literals():
    bad = {
        "Fp:9": "prime",
        "Fp:1": "prime",
        "Zn:0": "positive",
        "Quad:12": "squarefree",
        "Quad:1": "squarefree",
        "Quad:4": "squarefree",
    }
    for text, keyword in bad.items():
        with pytest.raises(ParseError) as exc:
            parse_context(text)
        assert keyword in str(exc.value)


def test_rejected_constructor_literals():
    for text in (
        "Quat",
        "HH",
        "Poly",
        "MPoly(Q)",
        "Series(Z)",
        "Prod()",
        "Prod(Z)",
        "Quot(Z,0)",
        "Quot(Z,1)",
        "Mat(Z,0)",
        "Frac(Zn:6)",
        "",
    ):
        with pytest.raises(ParseError):
            parse_context(text)


@pytest.mark.parametrize("text, what", [
    ("Mat(Z,32)", "Berkowitz steps for 32 x 32 matrices: 1048576"),
    ("Series(Z,99999999)", "series coefficients: 99999999"),
    ("Poly(" * 100 + "Z" + ")" * 100, "brackets nested deeper than 64"),
], ids=["matrices", "series", "nesting"])
def test_literals_over_the_budget_raise_too_large(text, what):
    # the literal is well formed; the work it asks for is refused
    with pytest.raises(TooLarge) as exc:
        parse_context(text)
    assert str(exc.value).startswith(what)


def test_parse_errors_are_distinct_from_ring_errors():
    assert not issubclass(ParseError, RingError)
    with pytest.raises(ParseError):
        parse_context("Nope:3")


def test_parsed_contexts_parse_their_own_elements():
    samples = {
        "Zn:12": "7",
        "Quad:-1": "2+3i",
        "Poly(Q)": "[1/2,0,1]",
        "Quot(Fp:2,[1,1,1])": "[1,1]",
        "Prod(Z,Zn:6)": "(4,11)",
    }
    for ctx_text, elem_text in samples.items():
        ctx = parse_context(ctx_text)
        e = ctx.parse_element(elem_text)
        assert ctx.parse_element(repr(e)) == e


# Every context of the flag table, and contexts it lacks: nested Series,
# Mat and Prod, Frac over Z[i], and bases that print the generator x or
# a fraction bar.  Each is checked with the polynomials over it.
ROUND_TRIP_CONTEXTS = [_build(literal) for literal, _ in FLAG_TABLE] + [
    parse_context(literal) for literal in (
        "Frac(Quad:-1)", "Mat(Q,2)", "Mat(Quad:-1,2)", "Mat(Quot(Z,12),2)",
        "Prod(Mat(Z,2),Series(Q,2))", "Prod(Quad:-1,Z)", "Series(Fp:5,3)",
        "Series(Mat(Z,1),2)", "Series(Poly(Z),2)", "Series(Prod(Z,Zn:6),2)",
        "Series(Quad:-1,2)", "Poly(Poly(Z))", "Poly(Frac(Poly(Q)))",
        "Poly(Quot(Fp:2,[1,1,1]))", "Frac(Frac(Z))", "Poly(Series(Q,2))",
        "Mat(Poly(Z),2)")]


def _samples(ctx):
    """Images of integers, the symbols and the lifted base symbols with
    an affine image of each, and every one of these divided by each unit
    among them."""
    out = [ctx.from_int(k) for k in (0, 1, -4, 3, 2)]
    syms = list(ctx.symbols().values())
    if isinstance(ctx, OverBase):
        syms += [ctx.lift(v) for v in ctx.base.symbols().values()]
    for v in syms:
        out += [v, ctx.add(ctx.mul(ctx.from_int(2), v), ctx.from_int(-1))]
    units = [u for u in map(ctx.try_inverse, out) if u is not None]
    return out + [ctx.mul(v, u) for v in out for u in units]


@pytest.mark.parametrize("ctx", ROUND_TRIP_CONTEXTS, ids=repr)
def test_shown_elements_parse_back(ctx):
    bs = _samples(ctx)
    poly = PolyRing(ctx)
    polys = [poly.canon(bs[i:i + 3]) for i in range(len(bs) - 2)]
    for c, vals in ((ctx, bs), (poly, polys + _samples(poly))):
        for v in vals:
            text = c.show(v)
            assert c.eq(c.parse(text), v), (c.name(), text)


def test_polynomial_parse_refusal_reports_its_own_grammar():
    with pytest.raises(ParseError, match="unexpected end of expression"):
        parse_context("Poly(Prod(Z,Zn:6))").parse("x+")
    with pytest.raises(ParseError, match="unknown symbol 'ys'"):
        parse_context("Poly(Quad:-1)").parse("[ys]")
