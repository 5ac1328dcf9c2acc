"""Text helpers: bracket-aware splitting and a small expression evaluator.

The evaluator implements the shared surface syntax for element literals
and the CLI's eval verb: +, -, *, /, ^ with the usual precedence,
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
from .errors import ParseError

_CLOSE = {"(": ")", "[": "]", "{": "}"}


def split_top(text, sep):
    """Split text on a separator character at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    parts.append("".join(cur))
    return parts


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
        if ch in "[{" or ch == "(" and t.find(",", i) != -1:
            depth = 0
            for j in range(i, n):
                if t[j] in "([{":
                    depth += 1
                elif t[j] in ")]}":
                    depth -= 1
                    if depth == 0:
                        break
            if depth or t[j] != _CLOSE[ch]:
                raise ParseError(f"unbalanced {ch!r} in {t!r}")
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
    """ctx.parse for text that is not one of ctx's bracket literals: an
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
    tok = toks.peek()
    if tok and tok[0] == "op" and tok[1] == "-":
        toks.take()
        return ctx.neg(_unary(ctx, toks, symbols))
    if tok and tok[0] == "op" and tok[1] == "+":
        toks.take()
        return _unary(ctx, toks, symbols)
    return _power(ctx, toks, symbols)


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
        return ring_pow_payload(ctx, base, sign * int(tok[1]))
    return base


def _atom(ctx, toks, symbols):
    tok = toks.take()
    if tok is None:
        raise ParseError("unexpected end of expression")
    kind, text, _ = tok
    if kind == "int":
        return ctx.from_int(int(text))
    if kind == "name":
        if text in symbols:
            return symbols[text]
        raise ParseError(f"unknown symbol {text!r}")
    if kind == "chunk":
        return ctx.parse(text)
    if kind == "op" and text == "(":
        val = _expr(ctx, toks, symbols)
        closing = toks.take()
        if not closing or closing[1] != ")":
            raise ParseError("missing closing parenthesis")
        return val
    raise ParseError(f"unexpected token {text!r}")


def atomic_or_parenthesized(text):
    """Render text so it can be embedded next to binary operators."""
    if not text:
        return "()"
    plain = text[1:] if text[0] == "-" else text
    if plain.isdigit():
        return text
    if text[0] in "([{":
        # already a single balanced group?
        depth = 0
        for i, ch in enumerate(text):
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    break
        else:
            if depth == 0:
                return text
    return f"({text})"
