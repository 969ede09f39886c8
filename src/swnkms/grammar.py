"""Text syntax for functions and algebra elements.

Function syntax (inside ``N[...]`` and standalone):
    x^2 + 2*exp(0.5) - 3i*x*exp(-1)
where ``exp(t)`` denotes e^{i t x} and ``2i`` is an imaginary literal.

Element syntax:
    X^2 Y N[x^2 + exp(1.5)] - 2i (X Y)^2
with ``H`` as an alias for ``N[x]``.  Multiplication is ``*`` or
juxtaposition.  One hand-written recursive-descent parser serves both
grammars (they differ only in their scalars and names), with 1-based column
diagnostics; ``format_function``/``format_element`` emit
text that reparses to an equal object.
"""

from __future__ import annotations

import re

from .algebra import AlgebraElement, H, N, X, Y
from .funcspace import FunctionExpr


class ParseError(ValueError):
    def __init__(self, message: str, column: int, text: str = ""):
        super().__init__(f"{message} at column {column}")
        self.message = message
        self.column = column
        self.text = text

    def caret_diagnostic(self) -> str:
        """The offending line with a caret under the error column."""
        return f"{self.text}\n{' ' * (self.column - 1)}^"


_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z]+")
_OPS = set("+-*^()[],")
_GENERATORS = {"X": X, "Y": Y, "H": H}


class _Token:
    __slots__ = ("kind", "value", "column")

    def __init__(self, kind, value, column):
        self.kind = kind
        self.value = value
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        m = _NUMBER.match(text, i)
        if m:
            i = m.end()
            value = float(m.group())
            if i < n and text[i] == "i":
                tokens.append(_Token("imag", value, col))
                i += 1
            else:
                tokens.append(_Token("number", value, col))
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, col))
            i += 1
            continue
        m = _NAME.match(text, i)
        if m:
            name = m.group()
            if name == "i":
                tokens.append(_Token("imag", 1.0, col))
            elif name in ("x", "exp", "X", "Y", "H", "N"):
                tokens.append(_Token("name", name, col))
            else:
                raise ParseError(f"unexpected token '{name}'", col, text)
            i = m.end()
            continue
        raise ParseError(f"unexpected token '{ch}'", col, text)
    tokens.append(_Token("end", None, n + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.here
        if tok.kind != kind:
            self.fail()
        return self.advance()

    def fail(self):
        tok = self.here
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.column, self.text)
        shown = tok.value if isinstance(tok.value, str) else _trim_number(tok)
        raise ParseError(f"unexpected token '{shown}'", tok.column, self.text)

    def int_power(self) -> int:
        tok = self.expect("number")
        if tok.value != int(tok.value) or tok.value < 0:
            raise ParseError(
                f"power must be a nonnegative integer, got '{tok.value}'",
                tok.column,
                self.text,
            )
        return int(tok.value)

    def signed_number(self) -> float:
        sign = 1.0
        if self.here.kind in ("+", "-"):
            sign = -1.0 if self.advance().kind == "-" else 1.0
        return sign * self.expect("number").value

    # -- sum / term / factor, shared by both grammars ---------------------------
    # A grammar is its scalar constructor, the primary that parses its names,
    # and those names; numbers and parentheses are parsed here for both.

    def _sum(self, scalar, primary, names):
        sign = 1.0
        while self.here.kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -sign
        value = self._term(scalar, primary, names)
        if sign < 0:
            value = -value
        while self.here.kind in ("+", "-"):
            op = self.advance().kind
            rhs = self._term(scalar, primary, names)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self, scalar, primary, names):
        value = self._factor(scalar, primary, names)
        while True:
            tok = self.here
            if tok.kind == "*":
                self.advance()
            elif not (
                tok.kind in ("number", "imag", "(")
                or (tok.kind == "name" and tok.value in names)
            ):
                return value
            value = value * self._factor(scalar, primary, names)

    def _factor(self, scalar, primary, names):
        tok = self.here
        if tok.kind in ("number", "imag"):
            self.advance()
            value = scalar(tok.value * 1j if tok.kind == "imag" else tok.value)
        elif tok.kind == "(":
            self.advance()
            value = self._sum(scalar, primary, names)
            self.expect(")")
        else:
            value = primary()
        if self.here.kind == "^":
            self.advance()
            value = value ** self.int_power()
        return value

    # -- function grammar ---------------------------------------------------

    def fsum(self) -> FunctionExpr:
        return self._sum(FunctionExpr.constant, self.fprimary, ("x", "exp"))

    def fprimary(self) -> FunctionExpr:
        tok = self.here
        if tok.kind == "name" and tok.value == "x":
            self.advance()
            return FunctionExpr.x_power(1)
        if tok.kind == "name" and tok.value == "exp":
            self.advance()
            self.expect("(")
            freq = self.signed_number()
            self.expect(")")
            return FunctionExpr.exponential(freq)
        self.fail()

    # -- element grammar ------------------------------------------------------

    def asum(self) -> AlgebraElement:
        return self._sum(AlgebraElement.scalar, self.aprimary, ("X", "Y", "H", "N"))

    def aprimary(self) -> AlgebraElement:
        tok = self.here
        if tok.kind == "name" and tok.value in _GENERATORS:
            self.advance()
            return _GENERATORS[tok.value]
        if tok.kind == "name" and tok.value == "N":
            self.advance()
            self.expect("[")
            f = self.fsum()
            self.expect("]")
            return N(f)
        self.fail()


def _trim_number(tok: _Token) -> str:
    v = tok.value
    return str(int(v)) if v == int(v) else repr(v)


def parse_function(text: str) -> FunctionExpr:
    p = _Parser(text)
    value = p.fsum()
    if p.here.kind != "end":
        p.fail()
    return value


def parse_element(text: str) -> AlgebraElement:
    p = _Parser(text)
    value = p.asum()
    if p.here.kind != "end":
        p.fail()
    return value


# -- formatting ----------------------------------------------------------------


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _split_coeff(c: complex):
    """(sign, text-or-None) for a complex coefficient; None means coefficient 1."""
    if c.imag == 0.0:
        sign = -1.0 if c.real < 0 else 1.0
        mag = abs(c.real)
        return sign, None if mag == 1.0 else _fmt_float(mag)
    if c.real == 0.0:
        sign = -1.0 if c.imag < 0 else 1.0
        return sign, _fmt_float(abs(c.imag)) + "i"
    op = "+" if c.imag > 0 else "-"
    return 1.0, f"({_fmt_float(c.real)}{op}{_fmt_float(abs(c.imag))}i)"


def _fmt_fterm(n: int, t: float, c: complex):
    sign, coeff = _split_coeff(c)
    parts = []
    if coeff is not None:
        parts.append(coeff)
    if n == 1:
        parts.append("x")
    elif n > 1:
        parts.append(f"x^{n}")
    if t != 0.0:
        parts.append(f"exp({_fmt_float(t)})")
    if not parts:
        parts.append(_fmt_float(1.0))
    return sign, "*".join(parts)


def _join_signed(pieces) -> str:
    out = []
    for k, (sign, body) in enumerate(pieces):
        if k == 0:
            out.append(("-" if sign < 0 else "") + body)
        else:
            out.append((" - " if sign < 0 else " + ") + body)
    return "".join(out)


def format_function(f: FunctionExpr) -> str:
    if f.is_zero:
        return "0"
    return _join_signed(_fmt_fterm(n, t, c) for n, t, c in f.terms)


def format_element(a: AlgebraElement) -> str:
    if a.is_zero:
        return "0"
    pieces = []
    for (m, n), f in a.terms:
        ladder = []
        if m == 1:
            ladder.append("X")
        elif m > 1:
            ladder.append(f"X^{m}")
        if n == 1:
            ladder.append("Y")
        elif n > 1:
            ladder.append(f"Y^{n}")
        if len(f.terms) == 1:
            fn, ft, fc = f.terms[0]
            sign, coeff = _split_coeff(fc)
            _, body = _fmt_fterm(fn, ft, 1.0 + 0j)
            cartan = None if (fn, ft) == (0, 0.0) else f"N[{body}]"
        else:
            sign, coeff, cartan = 1.0, None, f"N[{format_function(f)}]"
        parts = ([coeff] if coeff is not None else []) + ladder
        if cartan is not None:
            parts.append(cartan)
        if not parts:
            parts.append(_fmt_float(1.0))
        pieces.append((sign, " ".join(parts)))
    return _join_signed(pieces)
