"""Tiny exact univariate polynomials over the rationals.

Coefficient functions of basis-index operators are low-degree polynomials
in the index variable ``t``; everything here is exact (int / Fraction),
with a canonical representation (ascending coefficients, no trailing
zeros) so that structural equality of operators is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def normalize_rational(c: Rational) -> Rational:
    """Collapse integral Fractions to plain ints (hash/eq compatible anyway)."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def rat_str(c: Rational) -> str:
    """Render a rational exactly, as 'p' or 'p/q'. Never a float."""
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


@dataclass(frozen=True)
class Poly:
    """Polynomial in one variable t, coefficients ascending by degree."""

    coeffs: tuple

    def __post_init__(self):
        cs = [normalize_rational(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def const(c: Rational) -> "Poly":
        return Poly((c,))

    @staticmethod
    def t() -> "Poly":
        return Poly((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return ZERO
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(tuple(out))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c: Rational) -> "Poly":
        if c == 0:
            return ZERO
        return Poly(tuple(c * a for a in self.coeffs))

    def __call__(self, t: Rational) -> Rational:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return normalize_rational(acc)

    def compose_affine(self, a: int, b: int) -> "Poly":
        """Substitute t -> a*t + b (Horner over the affine argument)."""
        arg = Poly((b, a))
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * arg + Poly.const(c)
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if d == 0:
                body = rat_str(mag)
            else:
                var = "t" if d == 1 else f"t^{d}"
                body = var if mag == 1 else f"{rat_str(mag)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


ZERO = Poly(())
ONE = Poly((1,))
T = Poly((0, 1))
