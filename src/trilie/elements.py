"""The commutative associative algebra A with basis {L_r, M_r | r in Z}.

Elements are finitely supported rational linear combinations of basis
vectors.  The multiplication is L_r*L_s = L_{r+s}, M_r*M_s = M_{r+s},
L_r*M_s = 0.  Three structure maps live here as well: the family of
derivations d_k (L_r -> r*L_{k+r}, kills M), the grading derivation
delta (eigenvalue = index), and the involution omega (L_r <-> M_{-r}),
plus the linear functionals beta with f(L_r) = 0 used to weight the
ternary bracket of the first construction.

All arithmetic is exact; coefficients are ints or Fractions, always in
lowest terms, and zero coefficients are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple, Union

from .polys import Poly, Rational, Sparse, integral, normalize_rational, rat_str
from .report import PASS, ConfigError, VerdictReport, Window

FAMILY_L = "L"
FAMILY_M = "M"
FAMILIES = (FAMILY_L, FAMILY_M)


class BasisVector(NamedTuple):
    """A basis vector: family 'L' or 'M' plus an unbounded signed index."""

    family: str
    index: int

    def __str__(self) -> str:
        return f"{self.family}[{self.index}]"


class Element(Sparse):
    """Finitely supported rational combination of basis vectors.

    Supports +, -, scalar multiplication, and the algebra product via *.
    The stored form is canonical (no zero coefficients), so == is
    structural equality.
    """

    __slots__ = ()
    _monomial = staticmethod(BasisVector.__str__)
    # the shared product, bound here too because perfbench/tracer.py
    # wraps Element.__dict__["__mul__"] as its elements.product trace point
    __mul__ = Sparse.__mul__

    @staticmethod
    def _product_key(a: BasisVector, b: BasisVector) -> Optional[BasisVector]:
        return BasisVector(a.family, a.index + b.index) if a.family == b.family else None

    @staticmethod
    def basis(family: str, index: int, coef: Rational = 1) -> "Element":
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        return Element({BasisVector(family, int(index)): coef})

    def coefficient(self, bv: BasisVector) -> Rational:
        return self.terms.get(bv, 0)

    def support(self) -> Tuple[BasisVector, ...]:
        return tuple(sorted(self.terms))


def L(index: int, coef: Rational = 1) -> Element:
    return Element.basis(FAMILY_L, index, coef)


def M(index: int, coef: Rational = 1) -> Element:
    return Element.basis(FAMILY_M, index, coef)


# -- structure maps ----------------------------------------------------


def d_k(k: int, u: Element) -> Element:
    """Derivation d_k: L_r -> r*L_{k+r}, annihilates the M family."""
    out: Dict[BasisVector, Rational] = {}
    for (fam, r), c in u.terms.items():
        if fam == FAMILY_L and r:
            bv = BasisVector(FAMILY_L, k + r)
            out[bv] = out.get(bv, 0) + c * r
    return Element(out)


def delta(u: Element) -> Element:
    """Grading derivation: every basis vector is an eigenvector with
    eigenvalue equal to its index."""
    return Element({bv: c * bv.index for bv, c in u.terms.items()})


def omega(u: Element) -> Element:
    """Involution swapping families and negating indices."""
    swap = {FAMILY_L: FAMILY_M, FAMILY_M: FAMILY_L}
    return Element({BasisVector(swap[bv.family], -bv.index): c for bv, c in u.terms.items()})


# -- linear functionals (the beta weights) -----------------------------


@dataclass(frozen=True)
class PolynomialFunctional:
    """beta(t) = p(t) for a nonzero rational polynomial p; a constant
    weight is the degree-0 case."""

    poly: Poly

    def __post_init__(self):
        if self.poly.is_zero():
            raise ConfigError("weight must be nonzero")
        object.__setattr__(self, "_values", {})

    def beta(self, t: int) -> Rational:
        value = self._values.get(t)
        if value is None:  # memoised: Horner over Fractions costs ~12 us
            value = self._values[t] = self.poly(t)
        return value

    def denominator(self) -> int:
        """The lcm of the coefficients' denominators, which bounds beta's."""
        return integral(self.poly.terms)[0]

    def scaled(self, c: Rational) -> "PolynomialFunctional":
        return PolynomialFunctional(self.poly.scale(c))

    def as_poly(self) -> Optional[Poly]:
        return self.poly

    def describe(self) -> str:
        return f"{'const' if self.poly.degree == 0 else 'poly'}:{self.poly}"


def ConstantFunctional(c: Rational) -> PolynomialFunctional:
    """beta(t) = c for every index t: the degree-0 polynomial weight."""
    return PolynomialFunctional(Poly.const(c))


@dataclass(frozen=True)
class FiniteSupportFunctional:
    """beta supported on finitely many indices; at least one value nonzero."""

    values: Tuple[Tuple[int, Rational], ...]

    def __init__(self, values):
        items = tuple(sorted((int(t), normalize_rational(c)) for t, c in dict(values).items() if c))
        if not items:
            raise ConfigError("finite-support functional must have a nonzero value")
        object.__setattr__(self, "values", items)
        object.__setattr__(self, "_by_index", dict(items))

    def beta(self, t: int) -> Rational:
        return self._by_index.get(t, 0)

    def denominator(self) -> int:
        """The lcm of the values' denominators."""
        return integral(self._by_index)[0]

    def scaled(self, c: Rational) -> "FiniteSupportFunctional":
        return FiniteSupportFunctional({t: v * c for t, v in self.values})

    def as_poly(self) -> Optional[Poly]:
        return None

    def describe(self) -> str:
        body = ",".join(f"{t}={rat_str(c)}" for t, c in self.values)
        return f"support:{body}"


FunctionalSpec = Union[PolynomialFunctional, FiniteSupportFunctional]


def functional_eval(f: FunctionalSpec, u: Element) -> Rational:
    """Apply the functional: M_t contributes coefficient*beta(t), L gives 0."""
    acc = 0
    for (fam, t), c in u.terms.items():
        if fam == FAMILY_M:
            acc += c * f.beta(t)
    return normalize_rational(acc)


# -- window-scale verification of the structure maps -------------------


def window_basis(window: Window) -> Tuple[BasisVector, ...]:
    """All window basis vectors, L family first, indices ascending."""
    out = [BasisVector(FAMILY_L, r) for r in window.indices()]
    out += [BasisVector(FAMILY_M, r) for r in window.indices()]
    return tuple(out)


def check_structure_maps(window: Window, k: int = 1) -> VerdictReport:
    """Exhaustively verify, on window basis vectors:

    (a) d_k and delta satisfy the Leibniz rule on all products,
    (b) omega is multiplicative,
    (c) delta*omega + omega*delta = 0,
    (d) omega composed with itself is the identity.
    """
    rep = VerdictReport("structure-maps", {"window": str(window), "k": k})
    basis = window_basis(window)
    pairs = 0
    for b1 in basis:
        u = Element({b1: 1})
        for b2 in basis:
            v = Element({b2: 1})
            pairs += 1
            uv = u * v
            if d_k(k, uv) != d_k(k, u) * v + u * d_k(k, v):
                rep.record_failure(f"Leibniz fails for d_{k} on ({b1}, {b2})")
            if delta(uv) != delta(u) * v + u * delta(v):
                rep.record_failure(f"Leibniz fails for delta on ({b1}, {b2})")
            if omega(uv) != omega(u) * omega(v):
                rep.record_failure(f"omega not multiplicative on ({b1}, {b2})")
        anti = delta(omega(u)) + omega(delta(u))
        if anti:
            rep.record_failure(f"(delta*omega + omega*delta)({b1}) = {anti}")
        if omega(omega(u)) != u:
            rep.record_failure(f"omega(omega({b1})) = {omega(omega(u))}")
    rep.stats["basis_pairs"] = pairs
    if rep.status == PASS:
        rep.flag(
            "omega is an involution in the sense omega^2 = identity; the printed "
            "claim 'omega^2 = omega' fails on every basis vector with nonzero index "
            "and is reported here rather than silently repaired"
        )
    return rep
