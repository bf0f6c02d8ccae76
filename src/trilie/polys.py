"""Tiny exact univariate polynomials over the rationals, and the sparse
linear-combination base shared by every carrier of the package.

Coefficient functions of basis-index operators are low-degree polynomials
in the index variable ``t``; everything here is exact (int / Fraction),
with a canonical representation (ascending coefficients, no trailing
zeros) so that structural equality of operators is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Rational = Union[int, Fraction]


def normalize_rational(c: Rational) -> Rational:
    """Collapse integral Fractions to plain ints (hash/eq compatible anyway)."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def add_into(out: dict, pairs) -> dict:
    """Accumulate (key, value) pairs into out; a key whose sum is zero is
    removed, so out never stores a zero value.  Returns out.

    Here and in Sparse.__init__ normalize_rational is inlined: both run on
    every sum and construction of the carriers."""
    get = out.get
    for key, value in pairs:
        s = get(key)
        s = value if s is None else s + value
        if not s:
            out.pop(key, None)
        elif type(s) is Fraction and s.denominator == 1:
            out[key] = s.numerator
        else:
            out[key] = s
    return out


class Sparse:
    """Finitely supported exact linear combination, the shared carrier of
    Element, SymFunction, CoeffFn and Operator.

    ``terms`` maps keys to nonzero values, rationals or Poly / Sparse
    objects, so == is structural equality.  Subclasses add their own
    product, evaluation and rendering.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        clean = {}
        if terms:
            for key, value in terms.items():
                if value:
                    clean[key] = value.numerator if type(value) is Fraction and value.denominator == 1 else value
        self.terms = clean

    def _new(self, terms: dict):
        """An instance of the same class over terms already free of zeros."""
        res = object.__new__(type(self))
        res.terms = terms
        return res

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        return self._new(add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._new({key: -value for key, value in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Rational):
        if not c:
            return self._new({})
        c = normalize_rational(c)
        return self._new({
            key: value.scale(c) if isinstance(value, (Sparse, Poly)) else normalize_rational(c * value)
            for key, value in self.terms.items()
        })

    def __rmul__(self, c: Rational):
        return self.scale(c)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return str(self)


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
