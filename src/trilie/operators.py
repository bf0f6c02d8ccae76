"""Inner derivations as exact index-affine operators.

An inner derivation ad(u, v): w -> [u, v, w] acts on basis vectors
through finitely many *channels*.  A channel maps family_in at index t
to family_out at index eps*t + m (eps in {+1, 0, -1}: shift, collapse
onto a fixed index, or reflection) with an exact coefficient function
of t: a sum of monomials c*t^deg and weighted monomials
c*t^deg*beta(bs*t + bo) referring to the active linear functional.
An Operator stores exactly these structural coordinates: ``terms``
maps (fin, fout, eps, m, kind, bs, bo, deg) to the nonzero rational c,
with kind "p" (and bs = bo = 0) for a plain monomial and "b" for a
weighted one.  Rank and decomposition reduce ``terms`` directly.

This representation is closed under addition, scaling, composition and
commutators, so multiplication tables can be re-derived by a generic
commutator oracle and compared against their printed forms as exact
operator identities.  Products run on an integer form of each operand,
built on first use and kept in a slot: the common denominator D of its
coefficients and its terms grouped by input family with numerators c*D.
One kernel, ``_compose_into``, adds sign*(outer after inner) into an
integer accumulator; ``compose`` is one pass, ``commutator`` two passes
into the same accumulator, and one exact division by the denominators'
product per key gives the canonical rationals back.

When the functional is constant or polynomial the beta atoms reduce to
polynomials and equality is structural; for finite-support functionals
equality falls back to exhaustive window evaluation and reports say so.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Dict, Optional, Sequence, Tuple

from .brackets import OMEGA, TriBracketSpec, bracket_rules
from .elements import (
    FAMILIES,
    BasisVector,
    Element,
    FunctionalSpec,
    L,
    M,
    window_basis,
)
from .linalg import SpanSolver
from .polys import Poly, Rational, Sparse, add_into, divided, integral
from .report import Window


class Operator(Sparse):
    """Exact linear operator on A given by index-affine channels."""

    __slots__ = ("_form",)

    def apply(self, u: Element, functional: Optional[FunctionalSpec] = None) -> Element:
        out: Dict[BasisVector, Rational] = {}
        for (fam, t), c in u.terms.items():
            for (fin, fout, eps, m, kind, bs, bo, deg), a in self.terms.items():
                if fin != fam:
                    continue
                coef = c * a * t ** deg
                if kind == "b":
                    if functional is None:
                        raise ValueError("coefficient depends on beta but no functional is active")
                    coef *= functional.beta(bs * t + bo)
                if coef:
                    bv = BasisVector(fout, eps * t + m)
                    out[bv] = out.get(bv, 0) + coef
        return Element(out)

    def _int_form(self) -> Tuple[int, Dict[str, tuple]]:
        """(D, {fin: ((key, c*D), ...)}): the integral form of the terms,
        grouped by input family.  Built on first use as an operand and kept
        in a slot for the operator's lifetime."""
        try:
            return self._form
        except AttributeError:
            pass
        den, scaled = integral(self.terms)
        by_fin: Dict[str, list] = {}
        for key, n in scaled.items():
            by_fin.setdefault(key[0], []).append((key, n))
        self._form = form = (den, {fin: tuple(terms) for fin, terms in by_fin.items()})
        return form

    def compose(self, other: "Operator") -> "Operator":
        """self after other: the coefficient of self is read at the index
        eps1*t + m1 that other lands on, expanded binomially."""
        (da, a), (db, b) = self._int_form(), other._int_form()
        acc: Dict[tuple, int] = {}
        _compose_into(acc, a, b, 1)
        return self._new(divided(acc, da * db))

    def commutator(self, other: "Operator") -> "Operator":
        """self after other minus other after self, both passes into one
        integer accumulator."""
        (da, a), (db, b) = self._int_form(), other._int_form()
        acc: Dict[tuple, int] = {}
        _compose_into(acc, a, b, 1)
        _compose_into(acc, b, a, -1)
        return self._new(divided(acc, da * db))

    def substitute(self, f: FunctionalSpec) -> "Operator":
        """Reduce beta atoms when the functional has a closed polynomial form."""
        bp = f.as_poly()
        if bp is None or not self.has_beta():
            return self
        pairs = []
        for (fin, fout, eps, m, kind, bs, bo, deg), c in self.terms.items():
            head = (fin, fout, eps, m, "p", 0, 0)
            if kind == "p":
                pairs.append((head + (deg,), c))
            else:
                pairs.extend((head + (deg + j,), c * b) for j, b in bp.compose_affine(bs, bo).terms.items())
        return self._new(add_into({}, pairs))

    def has_beta(self) -> bool:
        return any(key[4] == "b" for key in self.terms)

    def max_poly_degree(self) -> int:
        return max((key[7] for key in self.terms), default=-1)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        channels: Dict[tuple, Dict[tuple, Dict[int, Rational]]] = {}
        for key, c in self.terms.items():
            channels.setdefault(key[:4], {}).setdefault(key[4:7], {})[key[7]] = c
        lines = []
        for (fin, fout, eps, m), atoms in sorted(channels.items()):
            parts = []
            # the plain atom first, then the beta atoms by (bs, bo)
            for (kind, bs, bo), degs in sorted(atoms.items(), key=lambda a: (a[0][0] == "b", a[0][1:])):
                p = Poly(tuple(degs.get(d, 0) for d in range(max(degs) + 1)))
                if kind == "p":
                    parts.append(str(p))
                else:
                    arg = {1: "t", -1: "-t", 0: ""}[bs]
                    if bo:
                        arg = f"{arg}{bo:+d}" if arg else str(bo)
                    parts.append(f"({p})*beta({arg})")
            if eps == 1:
                idx = f"t{m:+d}" if m else "t"
            elif eps == -1:
                idx = f"{m}-t" if m else "-t"
            else:
                idx = str(m)
            lines.append(f"{fin}[t] -> ({' + '.join(parts)})*{fout}[{idx}]")
        return "; ".join(lines)


def _compose_into(acc: Dict[tuple, int], outer: Dict[str, tuple], inner: Dict[str, tuple], sign: int) -> None:
    """Add sign * Do * Di * (outer after inner) into the int accumulator acc.

    outer and inner are the grouped terms of two integer forms, Do and Di
    their common denominators.  Only the outer terms whose fin is the
    inner term's fout are visited; outer degrees 0 and 1 skip the
    binomial loop."""
    get = acc.get
    for inner_terms in inner.values():
        for (fin1, fout1, eps1, m1, kind1, bs1, bo1, d1), n1 in inner_terms:
            outer_terms = outer.get(fout1)
            if outer_terms is None:
                continue
            n1 *= sign
            for (_, fout2, eps2, m2, kind2, bs2, bo2, d2), n2 in outer_terms:
                if kind2 == "p":
                    key = (fin1, fout2, eps2 * eps1, eps2 * m1 + m2, kind1, bs1, bo1, d1)
                elif kind1 == "p":
                    key = (fin1, fout2, eps2 * eps1, eps2 * m1 + m2, "b", bs2 * eps1, bs2 * m1 + bo2, d1)
                else:
                    # never produced by the ad-calculus of these algebras
                    raise ArithmeticError("product of two beta-weighted atoms is not representable")
                c = n1 * n2
                if d2 == 0:
                    acc[key] = get(key, 0) + c
                elif d2 == 1:
                    # c * (eps1*t + m1) * t^d1
                    if m1:
                        acc[key] = get(key, 0) + c * m1
                    if eps1:
                        key = key[:7] + (d1 + 1,)
                        acc[key] = get(key, 0) + c * eps1
                else:
                    head = key[:7]
                    for j in range(d2 + 1):
                        key = head + (d1 + j,)
                        acc[key] = get(key, 0) + c * comb(d2, j) * eps1 ** j * m1 ** (d2 - j)


def _window_map(op: Operator, functional: FunctionalSpec, window: Window) -> dict:
    """(basis vector, output vector) -> coefficient of op on the window basis."""
    return {
        (bv, obv): c for bv in window_basis(window) for obv, c in op.apply(Element({bv: 1}), functional).terms.items()
    }


def ops_equal(
    a: Operator,
    b: Operator,
    functional: Optional[FunctionalSpec] = None,
    window: Optional[Window] = None,
) -> Tuple[bool, str]:
    """Exact operator equality; returns (answer, decision mode).

    Structural when coefficients are (or reduce to) polynomials; for a
    finite-support functional the decision is by exhaustive evaluation
    on the window and labelled as such.
    """
    if functional is not None:
        a = a.substitute(functional)
        b = b.substitute(functional)
    if not (a.has_beta() or b.has_beta()):
        return a == b, "structural"
    if functional is None or window is None:
        raise ValueError("beta-dependent equality needs a functional and a window")
    # equal flat terms agree under every functional
    return a == b or _window_map(a, functional, window) == _window_map(b, functional, window), "window-decided"


# -- building inner derivations ------------------------------------------


def op_from_ad(spec: TriBracketSpec, u: Element, v: Element) -> Operator:
    """The operator w -> [u, v, w] in exact channel form: the bracket's
    product rules read with the index t of the third slot symbolic."""
    rules, shift, weight = bracket_rules(spec)
    pairs = []
    for (f1, i1), c1 in u.terms.items():
        for (f2, i2), c2 in v.terms.items():
            w = c1 * c2
            for f3 in FAMILIES:
                rule = rules.get((f1, f2, f3))
                if rule is None:
                    continue
                family, (x1, x2, eps), (y1, y2, y3), t_pos = rule
                c, atom = w, ("p", 0, 0)
                if weight is not None:
                    if t_pos == 2:  # the weight of the symbolic slot: beta(t)
                        atom = ("b", 1, 0)
                    else:
                        c = w * weight.beta((i1, i2)[t_pos])
                head = (f3, family, eps, x1 * i1 + x2 * i2 + shift) + atom
                pairs.append((head + (0,), c * (y1 * i1 + y2 * i2)))
                pairs.append((head + (1,), c * y3))
    op = Operator(add_into({}, pairs))
    return op if weight is None else op.substitute(weight)


# -- named generators ------------------------------------------------------


def ad_w(spec: TriBracketSpec, r: int, s: int) -> Operator:
    return op_from_ad(spec, L(r), M(s))


def ad_x(spec: TriBracketSpec, r: int, s: int) -> Operator:
    return op_from_ad(spec, L(r), L(s))


def ad_y(spec: TriBracketSpec, r: int, s: int) -> Operator:
    return op_from_ad(spec, M(r), M(s))


def gen_p(r: int) -> Operator:
    if r == 0:
        return op_from_ad(OMEGA, L(0), M(0))
    return (op_from_ad(OMEGA, L(0), M(-r)) + op_from_ad(OMEGA, L(r), M(0))).scale(Fraction(1, 2))


def gen_q(r: int) -> Operator:
    if r == 0:
        return op_from_ad(OMEGA, L(0), M(0)) - op_from_ad(OMEGA, L(1), M(1))
    return (op_from_ad(OMEGA, L(0), M(-r)) - op_from_ad(OMEGA, L(r), M(0))).scale(Fraction(1, r))


def gen_x(r: int) -> Operator:
    if r == 0:
        return op_from_ad(OMEGA, L(1), L(-1)).scale(Fraction(1, 2))
    return op_from_ad(OMEGA, L(r), L(0)).scale(Fraction(1, r))


def gen_z(r: int) -> Operator:
    if r == 0:
        return op_from_ad(OMEGA, M(1), M(-1)).scale(Fraction(1, 2))
    return op_from_ad(OMEGA, M(-r), M(0)).scale(Fraction(-1, r))


GENERATORS = {"p": gen_p, "q": gen_q, "x": gen_x, "z": gen_z}


# -- decomposition in a labelled operator set ------------------------------


class OperatorFamily:
    """A labelled operator family prebuilt for decomposition.

    Each operator is substituted once (when a functional is given) and its
    structural channel coordinates, as ``(0, key)``, are reduced against
    one SpanSolver.  If a ``(0, key)`` entry is left, the residual is added
    with a unit entry at the label coordinate ``(1, label)``: the augmented
    reduction [A | I], so each reduced row carries its combination over the
    labels, and an operator the family already spans gets no label.  Row
    pivots are ``(0, key)`` coordinates, but finding one may compare label
    coordinates, so the labels of a family must be mutually orderable.  A
    check builds the families it needs per call and drops them when it
    returns.
    """

    __slots__ = ("functional", "_solver")

    def __init__(
        self,
        labelled: Sequence[Tuple[object, Operator]],
        functional: Optional[FunctionalSpec] = None,
    ):
        self.functional = functional
        self._solver = SpanSolver()
        for lab, op in labelled:
            if functional is not None:
                op = op.substitute(functional)
            residual = self._solver.reduce({(0, key): c for key, c in op.terms.items()})
            if any(side == 0 for side, _ in residual):
                add_into(residual, [((1, lab), 1)])
                self._solver.add(residual)

    def decompose(self, target: Operator) -> Optional[Dict[object, Rational]]:
        """Express target as an exact combination of the family.

        Returns {label: coefficient} without zero entries, or None if the
        target lies outside the span.  Decomposition happens in structural
        channel coordinates (faithful for polynomial coefficients): one
        ``reduce`` of the target, whose label entries are the negated
        combination once no ``(0, key)`` entry is left.
        """
        if self.functional is not None:
            target = target.substitute(self.functional)
        residual = self._solver.reduce({(0, key): c for key, c in target.terms.items()})
        if any(side == 0 for side, _ in residual):
            return None
        return {lab: -c for (_, lab), c in residual.items()}


def decompose(
    target: Operator,
    labelled: Sequence[Tuple[object, Operator]],
    functional: Optional[FunctionalSpec] = None,
) -> Optional[Dict[object, Rational]]:
    """One-shot ``OperatorFamily(labelled, functional).decompose(target)``."""
    return OperatorFamily(labelled, functional).decompose(target)


class GeneratorTable:
    """The named generators of one check call.

    ``table(tag, *params)`` is ``builders[tag](*params)`` (``GENERATORS``
    by default), read through the dict on first use, so a patched
    generator takes effect, and reused for the rest of the call;
    ``table.family(tags, m)`` is the OperatorFamily labelled ``(tag, m)``
    over the one-parameter generators ``tags`` at index m.
    """

    __slots__ = ("_builders", "_ops", "_families")

    def __init__(self, builders: Optional[Dict[str, Callable[..., Operator]]] = None):
        self._builders = GENERATORS if builders is None else builders
        self._ops: Dict[Tuple[str, tuple], Operator] = {}
        self._families: Dict[Tuple[str, int], OperatorFamily] = {}

    def __call__(self, tag: str, *params: int) -> Operator:
        op = self._ops.get((tag, params))
        if op is None:
            op = self._ops[(tag, params)] = self.build(tag, *params)
        return op

    def build(self, tag: str, *params: int) -> Operator:
        """``builders[tag](*params)``, not kept."""
        return self._builders[tag](*params)

    def family(self, tags: str, m: int) -> OperatorFamily:
        fam = self._families.get((tags, m))
        if fam is None:
            fam = self._families[(tags, m)] = OperatorFamily(
                [((tag, m), self(tag, m)) for tag in tags]
            )
        return fam


def operator_rank(
    ops: Sequence[Operator],
    functional: Optional[FunctionalSpec] = None,
    window: Optional[Window] = None,
) -> Tuple[int, str]:
    """Exact rank of a family of operators, with the decision mode.

    Polynomial coefficients reduce to structural coordinates; a
    finite-support functional forces window evaluation (and the caller
    should report the rank as window-decided).
    """
    if functional is not None:
        ops = [op.substitute(functional) for op in ops]
    window_decided = any(op.has_beta() for op in ops)
    if window_decided and (functional is None or window is None):
        raise ValueError("beta-dependent rank needs a functional and a window")
    # structural coordinates are faithful for polynomial coefficients:
    # channels with different index maps agree at most at one index, so
    # structural independence coincides with independence as linear maps
    solver = SpanSolver()
    for op in ops:
        solver.add(_window_map(op, functional, window) if window_decided else op.terms)
    return solver.rank, "window-decided" if window_decided else "structural"


# -- invariant-subspace search (labelled basis, diagonal pivot) ------------


def invariant_line_structure(
    labels: Sequence[object],
    eigen: Dict[object, Rational],
    edges: Dict[object, set],
) -> dict:
    """Exact window-scale invariant-subspace enumeration.

    Requires a diagonal acting operator with pairwise distinct
    eigenvalues on the labelled basis (then every invariant subspace is
    spanned by basis labels), and the one-hop reachability of the full
    acting family.  Invariant subspaces are the unions of label
    closures; the result lists every inclusion-minimal proper one.
    """
    vals = [eigen[l] for l in labels]
    distinct = len(set(vals)) == len(vals)
    closures: Dict[object, frozenset] = {}
    full = frozenset(labels)
    for start in labels:
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for lab in frontier:
                for tgt in edges.get(lab, ()):
                    if tgt not in seen:
                        seen.add(tgt)
                        nxt.append(tgt)
            frontier = nxt
        closures[start] = frozenset(seen)
    minimal_proper = sorted(
        {c for c in closures.values() if c != full},
        key=lambda s: (len(s), sorted(map(str, s))),
    )
    return {
        "distinct_eigenvalues": distinct,
        "closures": closures,
        "minimal_proper": minimal_proper,
        "irreducible": distinct and not minimal_proper,
    }
