"""Text helpers: bracket-aware splitting and a small expression evaluator.

The evaluator implements the one surface syntax every context reads
(RingContext.parse): +, -, *, /, ^ with the usual precedence,
parentheses, integer atoms (interpreted through the context's from_int),
named symbols supplied by the caller (x for polynomial generators, s/i
for quadratic irrationalities, i/j/k for quaternion units), and bracketed
chunks handed back to the context's own parser: [...] and {...}
literals, and parenthesized groups with a top-level comma, the tuple
literals of product rings.

Division is real ring division (multiplication by an inverse), so "2/3"
means 2 * 3^-1 in whatever context is active; over F_7 that is 3, over Q
it is the fraction 2/3, and over Z it raises NotInvertible.

Juxtaposing a value with a symbol, parenthesized group, or bracketed
chunk multiplies them, so quaternion literals like "2+3j" and products
like "(x+1)(x+2)" read naturally.
"""

from .algebra import ring_pow_payload
from .errors import ParseError, TooLarge
from .intutil import MAX_DIGITS

_CLOSE = {"(": ")", "[": "]", "{": "}"}
# Each bracket level costs the recursive readers a few interpreter frames,
# so deeper text is refused before it can exhaust the recursion limit.
MAX_DEPTH = 64


def closing(text, i):
    """The index of the bracket that closes the one opened at text[i].

    The one depth scan of the readers: ParseError when the group is not
    closed, or closed by the wrong kind; TooLarge when it nests deeper
    than MAX_DEPTH.
    """
    depth = 0
    for j in range(i, len(text)):
        if text[j] in "([{":
            depth += 1
            if depth > MAX_DEPTH:
                raise TooLarge(f"brackets nested deeper than {MAX_DEPTH}")
        elif text[j] in ")]}":
            depth -= 1
            if depth == 0:
                if text[j] != _CLOSE[text[i]]:
                    break
                return j
    raise ParseError(f"unbalanced {text[i]!r} in {text!r}")


def split_top(text, sep):
    """Split text on a separator character at bracket depth zero."""
    parts = []
    start = i = 0
    while i < len(text):
        ch = text[i]
        if ch in _CLOSE:
            i = closing(text, i)
        elif ch in ")]}":
            raise ParseError(f"unbalanced brackets in {text!r}")
        elif ch == sep:
            parts.append(text[start:i])
            start = i + 1
        i += 1
    parts.append(text[start:])
    return parts


def group_items(text, brackets="[]"):
    """The stripped comma items of text when it is exactly one group in
    the given brackets ([] for an empty one), else None."""
    text = text.strip()
    if not text.startswith(brackets[0]) or closing(text, 0) != len(text) - 1:
        return None
    inner = text[1:-1].strip()
    return [p.strip() for p in split_top(inner, ",")] if inner else []


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        t = self.text
        n = len(t)
        i = self.pos
        while i < n and t[i].isspace():
            i += 1
        self.pos = i
        if i >= n:
            return None
        ch = t[i]
        if ch.isdigit():
            j = i
            while j < n and t[j].isdigit():
                j += 1
            return ("int", t[i:j], j)
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (t[j].isalnum() or t[j] == "_"):
                j += 1
            return ("name", t[i:j], j)
        if ch in _CLOSE:
            j = closing(t, i)
            if ch != "(" or len(split_top(t[i + 1:j], ",")) > 1:
                return ("chunk", t[i:j + 1], j + 1)
        if ch in "+-*/^()":
            return ("op", ch, i + 1)
        raise ParseError(f"unexpected character {ch!r} in {t!r}")

    def take(self):
        tok = self.peek()
        if tok is not None:
            self.pos = tok[2]
        return tok


def parse_expr(ctx, text):
    """ctx.parse for text that is not a literal of ctx's own: an
    expression over ctx.symbols().  A text that is one bracket chunk is
    refused, since evaluating it would hand it straight back here."""
    tok = _Tokens(text).peek()
    if tok and tok[0] == "chunk" and not text[tok[2]:].strip():
        raise ParseError(f"{ctx.name()} has no literal {tok[1]!r}")
    return eval_expr(ctx, text, ctx.symbols())


def eval_expr(ctx, text, symbols=None):
    """Evaluate an arithmetic expression to a payload of ctx."""
    symbols = symbols or {}
    toks = _Tokens(text)
    val = _expr(ctx, toks, symbols)
    if toks.peek() is not None:
        raise ParseError(f"trailing input in {text!r}")
    return val


def _expr(ctx, toks, symbols):
    val = _term(ctx, toks, symbols)
    while True:
        tok = toks.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            toks.take()
            rhs = _term(ctx, toks, symbols)
            val = ctx.add(val, rhs) if tok[1] == "+" else ctx.sub(val, rhs)
        else:
            return val


def _term(ctx, toks, symbols):
    val = _unary(ctx, toks, symbols)
    while True:
        tok = toks.peek()
        if tok and tok[0] == "op" and tok[1] in "*/":
            toks.take()
            rhs = _unary(ctx, toks, symbols)
            if tok[1] == "*":
                val = ctx.mul(val, rhs)
            else:
                val = ctx.mul(val, ctx.inverse(rhs))
        elif tok and (tok[0] in ("name", "chunk")
                      or (tok[0] == "op" and tok[1] == "(")):
            # juxtaposition is multiplication: 3j, 2x^3, (x+1)(x+2);
            # the implicit factor binds its own exponent first
            val = ctx.mul(val, _power(ctx, toks, symbols))
        else:
            return val


def _unary(ctx, toks, symbols):
    negate = False
    tok = toks.peek()
    while tok and tok[0] == "op" and tok[1] in "+-":
        toks.take()
        negate ^= tok[1] == "-"
        tok = toks.peek()
    val = _power(ctx, toks, symbols)
    return ctx.neg(val) if negate else val


def _power(ctx, toks, symbols):
    base = _atom(ctx, toks, symbols)
    tok = toks.peek()
    if tok and tok[0] == "op" and tok[1] == "^":
        toks.take()
        sign = 1
        tok = toks.take()
        if tok and tok[0] == "op" and tok[1] == "-":
            sign = -1
            tok = toks.take()
        if not tok or tok[0] != "int":
            raise ParseError("exponent must be an integer literal")
        return ring_pow_payload(ctx, base, sign * _int(tok[1]))
    return base


def _atom(ctx, toks, symbols):
    tok = toks.take()
    if tok is None:
        raise ParseError("unexpected end of expression")
    kind, text, _ = tok
    if kind == "int":
        return ctx.from_int(_int(text))
    if kind == "name":
        if text in symbols:
            return symbols[text]
        raise ParseError(f"unknown symbol {text!r}")
    if kind == "chunk":
        return ctx.parse(text)
    if kind == "op" and text == "(":
        val = _expr(ctx, toks, symbols)
        end = toks.take()
        if not end or end[1] != ")":
            raise ParseError("missing closing parenthesis")
        return val
    raise ParseError(f"unexpected token {text!r}")


def _int(digits):
    if len(digits) <= MAX_DIGITS:
        try:
            return int(digits)
        except ValueError:  # the interpreter's own limit, when it is lower
            pass
    raise TooLarge(f"integer literal of {len(digits)} digits")


def atomic_or_parenthesized(text):
    """Render text so it can be embedded next to binary operators."""
    if not text:
        return "()"
    plain = text[1:] if text[0] == "-" else text
    if plain.isdigit():
        return text
    if text[0] in _CLOSE and closing(text, 0) == len(text) - 1:
        return text
    return f"({text})"
