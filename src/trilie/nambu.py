"""Symbolic three-variable function algebra and the Jacobian bracket.

The carrier is span{ y^a z^b exp(r*x) : a, b >= 0, r in Z } with exact
rational coefficients.  It is closed under products and all three
partial derivatives, which is exactly what the determinant

    [g1, g2, g3] = det d(g1, g2, g3) / d(x, y, z)

needs.  Realization maps send the algebra basis L_r, M_r into this
carrier so the ternary brackets can be compared against the Jacobian
bracket term for term.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import lcm
from operator import add
from typing import Tuple, Union

from .brackets import (
    OMEGA,
    PERMUTATIONS,
    FKBracket,
    TriBracketSpec,
    _antisymmetric,
    _index_triples,
    _kernel_element,
    closed_triple_fn,
    permutation_cofactors,
    rule_table,
)
from .elements import FAMILY_L, BasisVector, Element, FunctionalSpec, window_basis
from .linalg import SpanSolver
from .polys import Rational, Sparse
from .report import PASS, VerdictReport, Window

# term key: (ypow, zpow, freq) with freq the integer coefficient of x
# inside the exponential
TermKey = Tuple[int, int, int]


class SymFunction(Sparse):
    """Finitely supported rational combination of y^a z^b exp(r*x)."""

    __slots__ = ()

    @staticmethod
    def term(coef: Rational = 1, ypow: int = 0, zpow: int = 0, freq: int = 0) -> "SymFunction":
        if ypow < 0 or zpow < 0:
            raise ValueError("powers of y and z must be nonnegative")
        return SymFunction({(ypow, zpow, freq): coef})

    @staticmethod
    def _product_key(a: TermKey, b: TermKey) -> TermKey:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    @staticmethod
    def _monomial(key: TermKey) -> str:
        ypow, zpow, freq = key
        factors = []
        if ypow:
            factors.append("y" if ypow == 1 else f"y^{ypow}")
        if zpow:
            factors.append("z" if zpow == 1 else f"z^{zpow}")
        if freq:
            inner = "x" if freq == 1 else ("-x" if freq == -1 else f"{freq}*x")
            factors.append(f"exp({inner})")
        return "*".join(factors)


# d/dx, d/dy and d/dz of c*y^a z^b exp(rx): c times the key entry r, a or b
# (by its position in the key (a, b, r)), at this offset from the key
PARTIALS = {"x": (2, (0, 0, 0)), "y": (0, (-1, 0, 0)), "z": (1, (0, -1, 0))}


def partial(var: str, g: SymFunction) -> SymFunction:
    """Exact partial derivative with respect to 'x', 'y', or 'z'."""
    if var not in PARTIALS:
        raise ValueError(f"unknown variable {var!r}")
    slot, offset = PARTIALS[var]
    return SymFunction({tuple(map(add, key, offset)): c * key[slot] for key, c in g.terms.items()})


def nambu_bracket(g1: SymFunction, g2: SymFunction, g3: SymFunction) -> SymFunction:
    """Jacobian determinant of (g1, g2, g3) with respect to (x, y, z)."""
    acc = SymFunction.zero()
    for (i, j, k), sign in PERMUTATIONS:
        prod = partial("xyz"[i], g1) * partial("xyz"[j], g2) * partial("xyz"[k], g3)
        acc = acc + (prod if sign > 0 else -prod)
    return acc


# -- realization maps ----------------------------------------------------


@dataclass(frozen=True)
class OmegaRealization:
    """L_r -> z exp(rx), M_r -> y exp(-rx), realizing ``omega``."""

    spec = OMEGA

    def image(self, bv: BasisVector) -> SymFunction:
        if bv.family == FAMILY_L:
            return SymFunction.term(1, 0, 1, bv.index)
        return SymFunction.term(1, 1, 0, -bv.index)

    def describe(self) -> str:
        return "omega-realization"


@dataclass(frozen=True)
class FKRealization:
    """L_r -> z exp(rx), M_r -> -beta_r y exp(kx).

    The printed image of M_r carries +beta_r, but the Jacobian bracket of
    those images reverses the bracket's orientation (the determinant
    yields the (s - r) coefficient, this bracket carries (r - s)).  The
    minus sign on the single M slot of every nonzero bracket restores an
    exact homomorphism; checks report the resolved sign.
    """

    k: int
    functional: FunctionalSpec

    @property
    def spec(self) -> TriBracketSpec:
        """The bracket this map realizes."""
        return FKBracket(self.k, self.functional)

    def image(self, bv: BasisVector) -> SymFunction:
        if bv.family == FAMILY_L:
            return SymFunction.term(1, 0, 1, bv.index)
        beta = self.functional.beta(bv.index)
        if not beta:
            return SymFunction.zero()
        return SymFunction.term(-beta, 1, 0, self.k)

    def describe(self) -> str:
        return f"fk-realization(k={self.k}, beta={self.functional.describe()}, sign=resolved)"


RealizationMap = Union[OmegaRealization, FKRealization]


def realize(rmap: RealizationMap, u: Element) -> SymFunction:
    acc = SymFunction.zero()
    for bv, c in u.terms.items():
        acc = acc + rmap.image(bv).scale(c)
    return acc


def _jacobian_row(g: SymFunction):
    """(key, (d/dx, d/dy, d/dz) coefficients) of a zero or one-monomial g,
    read through ``partial``.  The Jacobian of three such rows is one
    monomial: their determinant at the sum of their keys plus (-1, -1, 0).
    Raises ValueError unless g is zero or one monomial and each partial is
    zero or one monomial at its offset from g's key."""
    if len(g.terms) > 1:
        raise ValueError(f"the tabulated Jacobian needs one-monomial images, not {g}")
    key = next(iter(g.terms), (0, 0, 0))
    row = []
    for var, (_, offset) in PARTIALS.items():
        terms = partial(var, g).terms
        at = tuple(map(add, key, offset))
        if len(terms) > (at in terms):
            raise ValueError(f"d/d{var} of {g} is not one monomial at {at}")
        row.append(terms.get(at, 0))
    return key, row


def check_realization(rmap: RealizationMap, window: Window) -> VerdictReport:
    """Homomorphism check: the Jacobian bracket of the images equals the
    image of the bracket the map realizes (``rmap.spec``), on every window
    basis triple.

    Each basis image is read once, as its Jacobian row; the Jacobian of a
    triple is its rows' determinant, expanded over the first two rows once
    per pair, and the bracket side is the entry of the closed-form kernel's
    ``rule_table`` times the image of its output vector.  A counterexample
    is written out with ``nambu_bracket`` and ``realize``.

    Both sides are alternating when the kernel's rules are totally
    antisymmetric (``_antisymmetric``): the Jacobian is an integer
    determinant, and a permuted table entry is the signed entry with the
    same output.  A permutation then multiplies both sides by its sign, and
    a triple with a repeated vector is zero on both, so agreement on the
    strictly increasing triples decides all n**3.  A kernel without rules,
    rules that are not antisymmetric and any disagreeing representative
    take the sweep over every triple in lexicographic order, so the
    failures are the full sweep's."""
    rep = VerdictReport(
        "nambu-realization",
        {"map": rmap.describe(), "bracket": rmap.spec.describe(), "window": str(window)},
    )
    basis = window_basis(window)
    n = len(basis)
    kernel = closed_triple_fn(rmap.spec)
    coefs, outs = rule_table(kernel, (basis,) * 3)
    images = [rmap.image(bv) for bv in basis]
    rows = [_jacobian_row(g) for g in images]
    # integer rows: every determinant is then scale**3 times the Jacobian's
    scale = lcm(*(x.denominator for _, row in rows for x in row))
    rows = [(key, [int(x * scale) for x in row]) for key, row in rows]
    scale3 = scale**3
    outputs = {}  # output vector of a table entry -> the terms of its image

    def image_terms(vec) -> dict:
        if vec not in outputs:
            outputs[vec] = rmap.image(BasisVector(*vec)).terms
        return outputs[vec]

    def failures(orbits: bool):
        """Each triple (i, j, l) of ``_index_triples(n, orbits)`` whose two
        sides differ."""
        for i, j, ls in _index_triples(n, orbits):
            (key1, row1), (key2, row2) = rows[i], rows[j]
            c1, c2, c3 = permutation_cofactors(row1, row2)
            key12 = [x + y + d for x, y, d in zip(key1, key2, (-1, -1, 0))]
            for l in ls:
                key3, (x, y, z) = rows[l]
                det = c1 * x + c2 * y + c3 * z
                entry = (i * n + j) * n + l
                coef, out = coefs[entry], outs[entry]
                if out is None:
                    same = not det
                elif not det:
                    same = not image_terms(out)
                else:
                    image = image_terms(out)
                    key = tuple(map(add, key12, key3))
                    same = len(image) == 1 and image.get(key, 0) * coef * scale3 == det
                if not same:
                    yield i, j, l

    def text(i: int, j: int, l: int) -> str:
        entry = (i * n + j) * n + l
        jacobian = nambu_bracket(images[i], images[j], images[l])
        return (
            f"[{basis[i]},{basis[j]},{basis[l]}]: jacobian gives {jacobian}, "
            f"bracket image is {realize(rmap, _kernel_element(coefs[entry], outs[entry]))}"
        )

    rules = getattr(kernel, "rules", None)
    decided = rules is not None and _antisymmetric(rules[0], rules[2]) and not any(failures(True))
    for triple in () if decided else failures(False):
        rep.record_failure(functools.partial(text, *triple))
    rep.stats["triples"] = n**3
    if isinstance(rmap, FKRealization) and rep.status == PASS:
        rep.flag(
            "the printed M-image (+beta_r y exp(kx)) makes the map an "
            "anti-homomorphism: the Jacobian produces the (s-r) orientation "
            "while this bracket carries (r-s); the oracle negates the M images "
            "and the homomorphism is then exact"
        )
    return rep


def check_injectivity(rmap: RealizationMap, window: Window) -> VerdictReport:
    """Kernel dimension of the realization restricted to the window span,
    by exact row reduction of the images."""
    rep = VerdictReport(
        "realization-injectivity", {"map": rmap.describe(), "window": str(window)}
    )
    solver = SpanSolver()
    basis = window_basis(window)
    for bv in basis:
        solver.add(rmap.image(bv).terms)
    kernel_dim = len(basis) - solver.rank
    rep.stats["window_vectors"] = len(basis)
    rep.stats["image_rank"] = solver.rank
    rep.stats["kernel_dimension"] = kernel_dim
    if kernel_dim:
        rep.note(
            "the realization is a homomorphism but not injective on the window "
            f"span (kernel dimension {kernel_dim}); the M family collapses onto "
            "a single line"
        )
    return rep
