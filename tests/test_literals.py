"""Context literals: the textual grammar that names every ring the toolkit builds."""

import pytest

from ringkit import RingError, parse_context
from ringkit.errors import ParseError
from ringkit.poly import PolyRing


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
        "Mat(Z,32)",
        "Frac(Zn:6)",
        "",
    ):
        with pytest.raises(ParseError):
            parse_context(text)


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


# Every coefficient context whose elements print without the polynomial
# generator x (over a base that prints x, the two generators would share
# one name).
ROUND_TRIP_GRID = [
    "Z", "Q", "H", "Zn:1", "Zn:6", "Fp:2", "Fp:7", "Quad:-1", "Quad:-5",
    "Quad:2", "QuadF:-1", "QuadF:5", "Series(Z,1)", "Series(Q,2)",
    "Series(Fp:5,3)", "Series(Quad:-1,2)", "Series(Poly(Z),2)", "Mat(Z,1)",
    "Mat(Z,2)", "Mat(Fp:3,2)", "Mat(Q,2)", "Mat(Quad:-1,2)", "Prod(Z,Zn:6)",
    "Prod(Q,Fp:3)", "Prod(Quad:-1,Z)", "Prod(Mat(Z,2),Series(Q,2))",
    "Frac(Z)", "Frac(Quad:-5)", "Frac(Quad:-1)", "Quot(Z,7)", "Quot(Z,12)",
    "Quot(Quad:-1,3)", "Quot(Quad:-1,2+i)", "Frac(Quot(Z,7))",
    "Series(Prod(Z,Zn:6),2)", "Mat(Quot(Z,12),2)", "Series(Mat(Z,1),2)",
]


def _samples(ctx):
    out = [ctx.from_int(k) for k in (0, 1, -4, 3)]
    for v in ctx.symbols().values():
        out += [v, ctx.add(ctx.mul(ctx.from_int(2), v), ctx.from_int(-1))]
    return out


@pytest.mark.parametrize("literal", ROUND_TRIP_GRID)
def test_shown_elements_parse_back(literal):
    base = parse_context(literal)
    bs = _samples(base)
    poly = PolyRing(base)
    polys = [poly.canon(bs[i:i + 3]) for i in range(len(bs) - 2)]
    for ctx, vals in ((base, bs), (poly, polys + _samples(poly))):
        for v in vals:
            text = ctx.show(v)
            assert ctx.eq(ctx.parse(text), v), (ctx.name(), text)


def test_polynomial_parse_refusal_reports_its_own_grammar():
    with pytest.raises(ParseError, match="unexpected end of expression"):
        parse_context("Poly(Prod(Z,Zn:6))").parse("x+")
    with pytest.raises(ParseError, match="unknown symbol 'ys'"):
        parse_context("Poly(Quad:-1)").parse("[ys]")
