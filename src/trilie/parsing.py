"""Parsers for the element grammar and the CLI weight specifications.

Element grammar (whitespace-insensitive)::

    expr     := ['+'|'-'] term (('+'|'-') term)* | '0'
    term     := [rational '*'] basis
    basis    := ('L'|'M') '[' integer ']'
    rational := integer ['/' positive-integer]

This grammar and ``parse_poly``'s are both signed sums, read by one
loop (``_signed_terms``).  Canonical printing (``str(Element)``,
``str(Poly)``) emits them, so parse and print are mutually inverse on
canonical forms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .elements import BasisVector, Element, ConstantFunctional, FiniteSupportFunctional, FunctionalSpec, PolynomialFunctional
from .polys import Poly
from .report import ConfigError


class ElementSyntaxError(ConfigError):
    """Parse failure with a 1-based column position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at column {position}")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> Optional[str]:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise ElementSyntaxError("unexpected end of input", self.pos + 1)
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise ElementSyntaxError(f"expected {ch!r}", self.pos + 1)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ElementSyntaxError("expected an integer", self.pos + 1)
        return int(self.text[start : self.pos])

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek() == "/":
            self.pos += 1
            dpos = self.pos
            den = self.integer()
            if den <= 0:
                raise ElementSyntaxError("denominator must be positive", dpos + 1)
            return Fraction(num, den)
        return Fraction(num)

    def done(self) -> bool:
        return self.peek() is None


def _signed_terms(sc: _Scanner, empty: str):
    """Yield the sign of each term of a signed sum: the optional leading
    sign, then the sign of each '+'/'-' separator.  The caller reads each
    term before drawing the next sign; ``empty`` is the error text for
    blank input."""
    ch = sc.peek()
    if ch is None:
        raise ElementSyntaxError(empty, 1)
    sign = 1
    if ch in "+-":
        sign = -1 if sc.take() == "-" else 1
    while True:
        yield sign
        ch = sc.peek()
        if ch is None:
            return
        if ch not in "+-":
            raise ElementSyntaxError(f"expected '+' or '-', found {ch!r}", sc.pos + 1)
        sign = -1 if sc.take() == "-" else 1


def parse_element(text: str) -> Element:
    """Parse the element grammar into a canonical Element."""
    sc = _Scanner(text)
    return sum((_parse_term(sc, sign) for sign in _signed_terms(sc, "empty input")), Element.zero())


def _parse_term(sc: _Scanner, sign: int) -> Element:
    ch = sc.peek()
    if ch is None:
        raise ElementSyntaxError("expected a term", sc.pos + 1)
    coef = Fraction(1)
    if ch not in "LM":
        coef = sc.rational()
        if sc.peek() == "*":
            sc.take()
            ch = sc.peek()
        else:
            # a bare rational is only legal as the whole zero element
            if coef == 0 and sc.done():
                return Element.zero()
            raise ElementSyntaxError("expected '*' and a basis vector", sc.pos + 1)
    if ch not in ("L", "M"):
        raise ElementSyntaxError("expected basis family 'L' or 'M'", sc.pos + 1)
    fam = sc.take()
    sc.expect("[")
    idx = sc.integer()
    sc.expect("]")
    return Element({BasisVector(fam, idx): sign * coef})


def parse_poly(text: str) -> Poly:
    """Parse polynomials in t such as 't^2+1', '-t', '1/2*t - 3'."""
    sc = _Scanner(text)
    coeffs = {}
    for sign in _signed_terms(sc, "empty polynomial"):
        coef = Fraction(1)
        deg = 0
        ch = sc.peek()
        if ch != "t":
            coef = sc.rational()
            if sc.peek() == "*":
                sc.take()
                ch = sc.peek()
                if ch != "t":
                    raise ElementSyntaxError("expected 't'", sc.pos + 1)
        if sc.peek() == "t":
            sc.take()
            deg = 1
            if sc.peek() == "^":
                sc.take()
                dpos = sc.pos
                deg = sc.integer()
                if deg < 0:
                    raise ElementSyntaxError("exponent must be nonnegative", dpos + 1)
        coeffs[deg] = coeffs.get(deg, Fraction(0)) + sign * coef
    size = max(coeffs) + 1 if coeffs else 0
    return Poly(tuple(coeffs.get(d, 0) for d in range(size)))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ConfigError(f"zero denominator in weight value {text!r}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_beta(text: str) -> FunctionalSpec:
    """Weight specifications: 'const:1', 'poly:t^2+1', 'support:0=1,2=-1/3'."""
    kind, sep, body = text.partition(":")
    if not sep:
        raise ConfigError(f"weight spec needs 'kind:value', got {text!r}")
    if kind == "const":
        return ConstantFunctional(_fraction(body))
    if kind == "poly":
        return PolynomialFunctional(parse_poly(body))
    if kind == "support":
        values = {}
        for pair in body.split(","):
            idx, eq, val = pair.partition("=")
            try:
                index = int(idx)
            except ValueError:
                eq = ""
            if not eq:
                raise ConfigError(f"support entry needs 'index=value', got {pair!r}")
            values[index] = _fraction(val)
        return FiniteSupportFunctional(values)
    raise ConfigError(f"unknown weight kind {kind!r} (use const, poly, or support)")
