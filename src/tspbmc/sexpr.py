"""SMT-LIB2 S-expressions: the one reader and the value codec.

Both sides of the solver pipe use this module: the driver reads the
solver's replies with it and ``smtlite`` reads its scripts with it.

Lexical rules (SMT-LIB 2.6, section 3.1): ``;`` starts a comment that runs
to the end of the line; ``"..."`` is a string literal in which ``""``
stands for one quote; ``|...|`` is a quoted symbol holding any character
but ``|``; a parenthesis is a token; any other run of characters up to
whitespace, a parenthesis, ``;``, ``"`` or ``|`` is a symbol or a numeral.
String literals and quoted symbols may span lines. Atoms keep their raw
text, quotes and bars included.
"""

from __future__ import annotations

import io
import re
from fractions import Fraction

# Sexpr, in annotations: an atom's raw text (str) or a list of Sexpr.

_NUMERAL = re.compile(r"[0-9]+(?:\.[0-9]+)?")  # a numeral or a decimal

# leading whitespace, then one of: 1 comment, 2 "(", 3 ")", 4 atom
_TOKEN = re.compile(r'\s*(?:(;[^\n]*)|(\()|(\))'
                    r'|("[^"]*(?:""[^"]*)*"(?!")|\|[^|]*\||[^\s()|";]+))')


class Reader:
    """Reads one toplevel S-expression at a time from a text stream.

    The buffer is filled by ``readline``, not ``read(n)``: text-mode
    ``read(n)`` blocks until n characters arrive, which deadlocks against a
    peer that waits for the reply to the line it has just written. An
    expression is returned as soon as its last token is read, so a reply
    never waits for the line after it.
    """

    def __init__(self, stream: io.TextIOBase):
        self.stream = stream
        self.buf = ""
        self.pos = 0

    def scan(self) -> tuple[str, Sexpr] | None:
        """``(raw text, parsed)`` of the next toplevel expression, or None at
        the end of the input. Raises ValueError on a stray ``)``, on an
        unterminated literal and at the end of input inside an expression;
        the offending text is consumed, so the next call reads on."""
        stack: list[list[Sexpr]] = [[]]
        pieces = []  # raw text of the expression read before a refill
        start = None  # where the expression starts in buf
        while True:
            m = _TOKEN.match(self.buf, self.pos)
            if m is None:
                # the buffer is spent, or ends inside a literal that spans
                # lines (readline returns whole lines, so no other token
                # is cut by a refill)
                line = self.stream.readline()
                if line:
                    if start is not None:
                        pieces.append(self.buf[start:self.pos])
                        start = 0
                    self.buf = self.buf[self.pos:] + line
                    self.pos = 0
                    continue
                rest, self.buf, self.pos = self.buf[self.pos:].strip(), "", 0
                if rest:
                    raise ValueError(f"unterminated literal {rest[:20]!r}")
                if len(stack) > 1:
                    raise ValueError("unbalanced '(': end of input")
                return None
            self.pos = m.end()
            kind = m.lastindex
            if kind == 1:
                continue
            if start is None:
                start = m.start(kind)
            if kind == 2:
                stack.append([])
            elif kind == 3:
                if len(stack) == 1:
                    raise ValueError("unbalanced ')'")
                done = stack.pop()
                stack[-1].append(done)
            else:
                stack[-1].append(m.group(4))
            if len(stack) == 1:
                pieces.append(self.buf[start:self.pos])
                return "".join(pieces), stack[0][0]

    def next_expr(self) -> str | None:
        """Raw text of the next toplevel expression, or None at the end."""
        item = self.scan()
        return None if item is None else item[0]


def parse_all(text: str) -> list[Sexpr]:
    """Parse every toplevel S-expression in ``text``."""
    reader = Reader(io.StringIO(text))
    return [expr for _, expr in iter(reader.scan, None)]


def parse_one(text: str) -> Sexpr:
    exprs = parse_all(text)
    if len(exprs) != 1:
        raise ValueError(f"expected one S-expression, got {len(exprs)}")
    return exprs[0]


def read_sexpr(stream: io.TextIOBase) -> str:
    """Raw text of one S-expression (or a bare token such as ``sat``).

    Reads through a fresh ``Reader``, which drops the rest of the last line
    it read; use one ``Reader`` for a stream with several expressions on a
    line.
    """
    text = Reader(stream).next_expr()
    if text is None:
        raise EOFError("stream closed")
    return text


def string_literal(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def string_value(literal: str) -> str:
    if not literal.startswith('"'):
        raise ValueError(f"expected a string literal, got {literal!r}")
    return literal[1:-1].replace('""', '"')


def parse_value(expr: Sexpr):
    """Decode a model value: ``true``, ``false`` or a ``parse_real`` rational."""
    if expr in ("true", "false"):
        return expr == "true"
    return parse_real(expr)


def parse_real(expr: Sexpr) -> Fraction:
    """Decode an exact rational: a numeral, a decimal, or ``(- x)`` or
    ``(/ x y)`` of rationals with y nonzero."""
    if isinstance(expr, str):
        if _NUMERAL.fullmatch(expr):
            return Fraction(expr)
    elif len(expr) == 2 and expr[0] == "-":
        return -parse_real(expr[1])
    elif len(expr) == 3 and expr[0] == "/":
        divisor = parse_real(expr[2])
        if divisor:
            return parse_real(expr[1]) / divisor
    raise ValueError(f"cannot decode value {expr!r}")


def render_value(v) -> str:
    """SMT-LIB2 text of a Bool or a rational: ``3.0``, ``(- 3.0)``,
    ``(/ 7.0 2.0)``, ``(- (/ 7.0 2.0))``."""
    if isinstance(v, bool):
        return "true" if v else "false"
    q = Fraction(v)
    if q < 0:
        return f"(- {render_value(-q)})"
    if q.denominator == 1:
        return f"{q.numerator}.0"
    return f"(/ {q.numerator}.0 {q.denominator}.0)"
