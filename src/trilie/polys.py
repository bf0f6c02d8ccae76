"""Tiny exact univariate polynomials over the rationals, and the sparse
linear-combination base shared by every carrier of the package.

Coefficient functions of basis-index operators are low-degree polynomials
in the index variable ``t``; Poly substitutes a polynomial weight into
them and renders them.  Everything here is exact (int / Fraction), and
every carrier has a canonical form (a Sparse map from keys to nonzero
rationals), so structural equality is decidable.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
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
    Poly, Element, SymFunction and Operator.

    ``terms`` maps keys to nonzero rationals, so == is structural
    equality.  Subclasses add their own product, evaluation and
    rendering.
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
        return self._new(add_into(dict(self.terms), ((key, -value) for key, value in other.terms.items())))

    def scale(self, c: Rational):
        if not c:
            return self._new({})
        c = normalize_rational(c)
        return self._new({key: normalize_rational(c * value) for key, value in self.terms.items()})

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


class Poly(Sparse):
    """Polynomial in one variable t: ``terms`` maps each degree to its
    nonzero coefficient.  ``Poly(coeffs)`` takes the coefficients in
    ascending degree."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(dict(enumerate(coeffs)))

    @staticmethod
    def const(c: Rational) -> "Poly":
        return Poly((c,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return max(self.terms, default=-1)

    @property
    def coeffs(self) -> tuple:
        """Coefficients ascending by degree, without trailing zeros."""
        get = self.terms.get
        return tuple(get(d, 0) for d in range(self.degree + 1))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self._new(add_into({}, (
                (i + j, a * b) for i, a in self.terms.items() for j, b in other.terms.items()
            )))
        return self.scale(other)

    def __call__(self, t: Rational) -> Rational:
        acc = 0
        for d, c in self.terms.items():
            acc += c * t ** d
        return normalize_rational(acc)

    def compose_affine(self, a: int, b: int) -> "Poly":
        """Substitute t -> a*t + b (binomial expansion of each power)."""
        out: dict = {}
        for d, c in self.terms.items():
            add_into(out, ((j, c * comb(d, j) * a ** j * b ** (d - j)) for j in range(d + 1)))
        return self._new(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms, reverse=True):
            c = self.terms[d]
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


T = Poly((0, 1))
