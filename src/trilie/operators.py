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
from functools import partial
from math import comb, lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .brackets import FKBracket, OmegaBracket, TriBracketSpec, bracket_rules
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
from .polys import Poly, Rational, Sparse, add_into, rat_str
from .report import PASS, ConfigError, VerdictReport, Window


class Operator(Sparse):
    """Exact linear operator on A given by index-affine channels."""

    __slots__ = ("_form",)

    def __mul__(self, c: Rational) -> "Operator":
        return self.scale(c)

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
        """(D, {fin: ((key, c*D), ...)}): the common denominator D of the
        coefficients and the terms grouped by input family with integer
        numerators.  Built on first use as an operand and kept in a slot
        for the operator's lifetime."""
        try:
            return self._form
        except AttributeError:
            pass
        den = lcm(*[c.denominator for c in self.terms.values()])
        by_fin: Dict[str, list] = {}
        for key, c in self.terms.items():
            n = c * den if type(c) is int else c.numerator * (den // c.denominator)
            by_fin.setdefault(key[0], []).append((key, n))
        self._form = form = (den, {fin: tuple(terms) for fin, terms in by_fin.items()})
        return form

    def _from_scaled(self, acc: Dict[tuple, int], den: int) -> "Operator":
        """The operator with terms acc / den, zero keys dropped."""
        terms = {}
        for key, n in acc.items():
            if n:
                q, r = divmod(n, den)
                terms[key] = Fraction(n, den) if r else q
        return self._new(terms)

    def compose(self, other: "Operator") -> "Operator":
        """self after other: the coefficient of self is read at the index
        eps1*t + m1 that other lands on, expanded binomially."""
        (da, a), (db, b) = self._int_form(), other._int_form()
        acc: Dict[tuple, int] = {}
        _compose_into(acc, a, b, 1)
        return self._from_scaled(acc, da * db)

    def commutator(self, other: "Operator") -> "Operator":
        """self after other minus other after self, both passes into one
        integer accumulator."""
        (da, a), (db, b) = self._int_form(), other._int_form()
        acc: Dict[tuple, int] = {}
        _compose_into(acc, a, b, 1)
        _compose_into(acc, b, a, -1)
        return self._from_scaled(acc, da * db)

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
    if a == b:  # equal flat terms agree under every functional
        return True, "window-decided"
    for bv in window_basis(window):
        u = Element({bv: 1})
        if a.apply(u, functional) != b.apply(u, functional):
            return False, "window-decided"
    return True, "window-decided"


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


_OMEGA = OmegaBracket()


def gen_p(r: int) -> Operator:
    if r == 0:
        return op_from_ad(_OMEGA, L(0), M(0))
    return (op_from_ad(_OMEGA, L(0), M(-r)) + op_from_ad(_OMEGA, L(r), M(0))).scale(Fraction(1, 2))


def gen_q(r: int) -> Operator:
    if r == 0:
        return op_from_ad(_OMEGA, L(0), M(0)) - op_from_ad(_OMEGA, L(1), M(1))
    return (op_from_ad(_OMEGA, L(0), M(-r)) - op_from_ad(_OMEGA, L(r), M(0))).scale(Fraction(1, r))


def gen_x(r: int) -> Operator:
    if r == 0:
        return op_from_ad(_OMEGA, L(1), L(-1)).scale(Fraction(1, 2))
    return op_from_ad(_OMEGA, L(r), L(0)).scale(Fraction(1, r))


def gen_z(r: int) -> Operator:
    if r == 0:
        return op_from_ad(_OMEGA, M(1), M(-1)).scale(Fraction(1, 2))
    return op_from_ad(_OMEGA, M(-r), M(0)).scale(Fraction(-1, r))


GENERATORS = {"p": gen_p, "q": gen_q, "x": gen_x, "z": gen_z}


# -- decomposition in a labelled operator set ------------------------------


class OperatorFamily:
    """A labelled operator family prebuilt for decomposition.

    Each operator is substituted once (when a functional is given) and
    its structural channel coordinates are added once to one SpanSolver,
    so every ``decompose`` is a single exact ``express``.  A check builds
    the families it needs per call and drops them when it returns.
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
            self._solver.add(op.terms, tag=lab)

    def decompose(self, target: Operator) -> Optional[Dict[object, Rational]]:
        """Express target as an exact combination of the family.

        Returns {label: coefficient} without zero entries, or None if the
        target lies outside the span.  Decomposition happens in structural
        channel coordinates (faithful for polynomial coefficients).
        """
        if self.functional is not None:
            target = target.substitute(self.functional)
        combo = self._solver.express(target.terms)
        if combo is None:
            return None
        return {lab: c for lab, c in combo.items() if c}


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
            op = self._ops[(tag, params)] = self._builders[tag](*params)
        return op

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
    if any(op.has_beta() for op in ops):
        if functional is None or window is None:
            raise ValueError("beta-dependent rank needs a functional and a window")
        solver = SpanSolver()
        basis = window_basis(window)
        for op in ops:
            vec = {}
            for bv in basis:
                img = op.apply(Element({bv: 1}), functional)
                for obv, c in img.terms.items():
                    vec[(bv, obv)] = c
            solver.add(vec)
        return solver.rank, "window-decided"
    # structural coordinates are faithful for polynomial coefficients:
    # channels with different index maps agree at most at one index, so
    # structural independence coincides with independence as linear maps
    solver = SpanSolver()
    for op in ops:
        solver.add(op.terms)
    return solver.rank, "structural"


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


# -- published-table verification ------------------------------------------

# ten bracket rows of the p/q/x/z table: left tag, right tag, and the
# expected right-hand side as (coefficient as function of (r, s), tag)
TABLE_ROWS: Tuple[Tuple[str, str, Optional[Tuple[object, str]]], ...] = (
    ("p", "p", (lambda r, s: r - s, "p")),
    ("p", "q", (lambda r, s: -s, "q")),
    ("p", "x", (lambda r, s: -s, "x")),
    ("p", "z", (lambda r, s: -s, "z")),
    ("q", "q", None),
    ("q", "x", (lambda r, s: -2, "x")),
    ("q", "z", (lambda r, s: 2, "z")),
    ("x", "x", None),
    ("z", "z", None),
    ("z", "x", (lambda r, s: 1, "q")),
)


def verify_table_5_1(bound: int = 5) -> VerdictReport:
    """Re-derive the ten p/q/x/z bracket rows with the commutator oracle
    and compare against the printed right-hand sides as exact operators.

    On any mismatch the oracle's decomposition of the commutator in the
    graded p/q/x/z set is reported as the corrected right-hand side.
    """
    rep = VerdictReport("table-5-1", {"bound": bound})
    gens = GeneratorTable()
    pairs = 0
    corrections = 0
    for left, right, expected in TABLE_ROWS:
        row_ok = True
        for r in range(-bound, bound + 1):
            for s in range(-bound, bound + 1):
                pairs += 1
                comm = gens(left, r).commutator(gens(right, s))
                if comm.max_poly_degree() > 1:
                    rep.record_failure(
                        f"[{left}_{r}, {right}_{s}] has coefficient degree > 1 after cancellation"
                    )
                if expected is None:
                    want = Operator.zero()
                else:
                    coef_fn, tag = expected
                    want = gens(tag, r + s).scale(coef_fn(r, s))
                if comm != want:
                    row_ok = False
                    corrections += 1
                    combo = gens.family("pqxz", r + s).decompose(comm)
                    if combo is None:
                        detail = f"channels: {comm}"
                    else:
                        detail = " + ".join(
                            f"{rat_str(c)}*{tag}_{m}" for (tag, m), c in sorted(combo.items())
                        ) or "0"
                    rep.record_failure(
                        f"[{left}_{r}, {right}_{s}]: printed row disagrees; oracle gives {detail}"
                    )
        if row_ok:
            rep.stats[f"row_{left}{right}"] = "confirmed"
    rep.stats["pairs_checked"] = pairs
    rep.stats["corrections"] = corrections
    return rep


# -- linear independence of the published operator families ----------------


def verify_basis_independence(
    algebra: str,
    window: Window,
    functional: Optional[FunctionalSpec] = None,
    k: int = 0,
    s0: int = 0,
) -> VerdictReport:
    """Exact rank of the published spanning ops, plus the reduction
    identities used to cut the W/X/Y families down to it."""
    rep = VerdictReport(
        "basis-independence",
        {"algebra": algebra, "window": str(window), "k": k, "s0": s0},
    )
    if algebra == "omega":
        spec: TriBracketSpec = _OMEGA
    elif algebra != "fk":
        raise ConfigError("algebra must be 'omega' or 'fk'")
    elif functional is None:
        raise ConfigError("fk basis independence needs a functional")
    elif functional.beta(s0) == 0:
        raise ConfigError(f"beta({s0}) vanishes; pick s0 with a nonzero weight")
    else:
        spec = FKBracket(k, functional)
    # the ops members and the reductions' right-hand sides recur across
    # (r, s), so each is built once per call; a left-hand side is used once
    reused = GeneratorTable({"W": partial(ad_w, spec), "X": partial(ad_x, spec), "Y": partial(ad_y, spec)})
    w_op, x_op, y_op = (partial(reused, tag) for tag in "WXY")

    if algebra == "omega":
        ops = [
            ("W(0,0)", w_op(0, 0)),
            ("W(1,1)", w_op(1, 1)),
            ("X(1,-1)", x_op(1, -1)),
            ("Y(1,-1)", y_op(1, -1)),
        ]
        for r in window.indices():
            if r == 0:
                continue
            ops.append((f"W({r},0)", w_op(r, 0)))
            ops.append((f"W(0,{r})", w_op(0, r)))
            ops.append((f"X({r},0)", x_op(r, 0)))
            ops.append((f"Y({r},0)", y_op(r, 0)))
        rank, mode = operator_rank([op for _, op in ops])
        rep.stats["family_size"] = len(ops)
        rep.stats["rank"] = rank
        rep.stats["decision"] = mode
        if rank != len(ops):
            rep.record_failure(f"rank {rank} < ops size {len(ops)}")
        for r in window.indices():
            for s in window.indices():
                if r != s:
                    lhs = ad_w(spec, r, s).scale(r - s)
                    rhs = w_op(r - s, 0).scale(r) - w_op(0, s - r).scale(s)
                    if lhs != rhs:
                        rep.record_failure(f"W({r},{s}) reduction identity fails")
                else:
                    if ad_w(spec, r, r) != w_op(0, 0).scale(1 - r) + w_op(1, 1).scale(r):
                        rep.record_failure(f"W({r},{r}) diagonal reduction fails")
                if s != -r:
                    if ad_x(spec, r, s).scale(r + s) != x_op(r + s, 0).scale(r - s):
                        rep.record_failure(f"X({r},{s}) reduction identity fails")
                    if ad_y(spec, r, s).scale(r + s) != y_op(r + s, 0).scale(r - s):
                        rep.record_failure(f"Y({r},{s}) reduction identity fails")
                elif r != 0:
                    if ad_x(spec, r, -r) != x_op(1, -1).scale(r):
                        rep.record_failure(f"X({r},{-r}) != {r}*X(1,-1)")
                    if ad_y(spec, r, -r) != y_op(1, -1).scale(r):
                        rep.record_failure(f"Y({r},{-r}) != {r}*Y(1,-1)")
        rep.stats["reduction_identities"] = "checked"
        return rep

    ops = [(f"W({s},{s0})", w_op(s, s0)) for s in window.indices()]
    ops += [(f"X({r},0)", x_op(r, 0)) for r in window.indices() if r != 0]
    ops.append(("X(1,-1)", x_op(1, -1)))
    rank, mode = operator_rank([op for _, op in ops], functional, window)
    rep.stats["family_size"] = len(ops)
    rep.stats["rank"] = rank
    rep.stats["decision"] = mode
    if mode == "window-decided":
        rep.note(
            "finite-support weight: rank and operator equalities decided by "
            "exhaustive window evaluation"
        )
    if rank != len(ops):
        rep.record_failure(f"rank {rank} < ops size {len(ops)}")
    flagged_scaling = False
    for r in window.indices():
        for s in window.indices():
            if r + s != 0:
                eq, _ = ops_equal(
                    ad_x(spec, r, s).scale(r + s),
                    x_op(r + s, 0).scale(r - s),
                    functional,
                    window,
                )
                if not eq:
                    rep.record_failure(f"X({r},{s}) reduction identity fails")
            elif r != 0:
                x_rr = ad_x(spec, r, -r)
                eq, _ = ops_equal(x_rr, x_op(1, -1).scale(r), functional, window)
                if not eq:
                    rep.record_failure(f"X({r},{-r}) != {r}*X(1,-1)")
                if r * r != 1:
                    printed_eq, _ = ops_equal(
                        x_rr,
                        x_op(1, -1).scale(Fraction(1, r)),
                        functional,
                        window,
                    )
                    if not printed_eq:
                        flagged_scaling = True
    if flagged_scaling:
        rep.flag(
            "printed scaling X(r,-r) = (1/r)*X(1,-1) is off: the oracle gives "
            "X(r,-r) = r*X(1,-1) (they agree only for r = +/-1)"
        )
    # proportionality of the W ops in its second slot
    beta_s0 = functional.beta(s0)
    for r in window.indices():
        for s in window.indices():
            ratio = Fraction(functional.beta(s)) / Fraction(beta_s0)
            eq, _ = ops_equal(
                ad_w(spec, r, s), w_op(r, s0).scale(ratio), functional, window
            )
            if not eq:
                rep.record_failure(f"W({r},{s}) is not {rat_str(ratio)} * W({r},{s0})")
    rep.note(
        f"W(r,s) = (beta(s)/beta({s0})) * W(r,{s0}); the printed ratio divides by "
        "beta(0), which may vanish for admissible weights, so the oracle "
        f"normalizes by beta({s0}) instead"
    )
    return rep


# -- structure of the inner derivations of the fk algebra ------------------


def verify_section3_structure(
    k: int, functional: FunctionalSpec, s0: int, window: Window
) -> VerdictReport:
    """Structure of ad A for the weighted bracket, re-derived exactly:

    (a) the Witt-type relation on the W family at fixed second slot s0,
    (b) commutativity of the X family,
    (c) the case-split action of W on X, each branch compared against
        its printed coefficient (mismatches get the oracle's corrected
        right-hand side),
    (d) no proper nonzero W-invariant subspace of the X window span,
    (e) the W(r,s) proportionality ratio across the second slot.
    """
    beta_s0 = functional.beta(s0)
    if not beta_s0:
        raise ConfigError(f"beta({s0}) = 0; the construction needs a nonzero weight at s0")
    spec = FKBracket(k, functional)
    rep = VerdictReport(
        "section3-structure",
        {"k": k, "beta": functional.describe(), "s0": s0, "window": str(window)},
    )
    if functional.as_poly() is None:
        rep.note(
            "the weight has finite support, so operator equalities in this run "
            "are window-decided (exhaustive evaluation), not structural"
        )

    def weq(a, b):
        eq, _ = ops_equal(a, b, functional, window)
        return eq

    # W(s, s0) and the X basis, each operator built once per call; the X
    # basis is labelled by m: X(m,0), with m = 0 standing for X(1,-1)
    ops = GeneratorTable({
        "W": lambda s: ad_w(spec, s, s0),
        "X": lambda m: ad_x(spec, 1, -1) if m == 0 else ad_x(spec, m, 0),
    })
    w_op, x_op = partial(ops, "W"), partial(ops, "X")

    def x_name(m: int) -> str:
        return "X(1,-1)" if m == 0 else f"X({m},0)"

    # (a) Witt relation on W generators
    witt = 0
    for r in window.indices():
        for s in window.indices():
            witt += 1
            comm = w_op(r).commutator(w_op(s))
            want = w_op(r + s + k).scale(beta_s0 * (s - r))
            if not weq(comm, want):
                rep.record_failure(
                    f"[W({r},{s0}), W({s},{s0})] != beta({s0})*({s}-{r})*W({r + s + k},{s0})"
                )
    rep.stats["witt_pairs"] = witt

    # (b) the X family commutes
    x_params = [r for r in window.indices() if r != 0] + [0]
    for m1 in x_params:
        for m2 in x_params:
            if x_op(m1).commutator(x_op(m2)):
                rep.record_failure(f"[{x_name(m1)}, {x_name(m2)}] != 0")
    rep.stats["xx_pairs"] = len(x_params) ** 2

    # labelled X basis over an index range wide enough for one action hop
    reach_lo = min(2 * window.lo + k, window.lo)
    reach_hi = max(2 * window.hi + k, window.hi)
    extended = OperatorFamily(
        [(m, x_op(m)) for m in range(reach_lo, reach_hi + 1)], functional
    )

    # (c) three-branch action of W on X(r,0), two-branch action on X(1,-1)
    branch_hits = {1: 0, 2: 0, 3: 0}
    flagged: List[str] = []
    for s in window.indices():
        ws = w_op(s)
        for r in window.indices():
            if r == 0:
                continue
            comm = ws.commutator(x_op(r))
            combo = extended.decompose(comm)
            if combo is None:
                rep.record_failure(f"[W({s},{s0}), X({r},0)] leaves the X span")
                continue
            if r + s != -k:
                branch_hits[1] += 1
                want = x_op(r + s + k).scale(
                    Fraction(r * (r - s + k), r + s + k) * beta_s0
                )
                if not weq(comm, want):
                    rep.record_failure(
                        f"branch 1 coefficient mismatch at (r={r}, s={s})"
                    )
            elif s != 0:
                branch_hits[2] += 1
                oracle = x_op(0).scale(-r * s * beta_s0)
                if not weq(comm, oracle):
                    rep.record_failure(f"branch 2 oracle form fails at (r={r}, s={s})")
                printed = x_op(0).scale(Fraction(-r, s) * beta_s0)
                if not weq(comm, printed) and not flagged:
                    flagged.append(
                        "printed branch coefficient r*beta/s on the swapped generator "
                        "is off: the oracle gives r*s*beta (they agree only for s = +/-1); "
                        f"first mismatch at (r={r}, s={s})"
                    )
            else:
                branch_hits[3] += 1
                if comm:
                    rep.record_failure(
                        f"branch 3 expects the zero operator at (r={r}, s={s})"
                    )
    for s in window.indices():
        comm = w_op(s).commutator(x_op(0))
        if s != -k:
            want = x_op(s + k).scale(Fraction(2 * (k - s), s + k) * beta_s0)
            if not weq(comm, want):
                rep.record_failure(f"[W({s},{s0}), X(1,-1)] mismatch at s={s}")
        else:
            oracle = x_op(0).scale(2 * k * beta_s0)
            if not weq(comm, oracle):
                rep.record_failure(f"[W({-k},{s0}), X(1,-1)] oracle form fails")
            if k * k != 1:
                flagged.append(
                    "printed coefficient (2*beta/s at s=-k) disagrees with the oracle "
                    f"value 2*k*beta for k={k}"
                    + ("; the printed form divides by zero" if k == 0 else "")
                )
    for branch, hits in branch_hits.items():
        rep.stats[f"branch_{branch}_hits"] = hits
    for note in flagged:
        rep.flag(note)

    # (d) invariant-subspace search: diagonal pivot W(-k, s0), then closures
    labels = list(window.indices())
    eigen: Dict[object, Rational] = {}
    pivot = w_op(-k)
    diag_ok = True
    for m in labels:
        op = x_op(m)
        comm = pivot.commutator(op)
        expected_eig = beta_s0 * (m + 2 * k)
        if not weq(comm, op.scale(expected_eig)):
            diag_ok = False
            rep.record_failure(f"W({-k},{s0}) does not act diagonally on {x_name(m)}")
        eigen[m] = expected_eig
    edges: Dict[object, set] = {m: set() for m in labels}
    escapes = 0
    for s in window.indices():
        ws = w_op(s)
        for m in labels:
            comm = ws.commutator(x_op(m))
            combo = extended.decompose(comm)
            for target in combo or {}:
                if target in edges:
                    if target != m:
                        edges[m].add(target)
                else:
                    escapes += 1
    structure = invariant_line_structure(labels, eigen, edges)
    rep.stats["action_escapes"] = escapes
    if diag_ok and structure["irreducible"]:
        rep.stats["invariant_subspaces"] = "none proper (window-exact)"
    else:
        for sub in structure["minimal_proper"]:
            names = ", ".join(x_name(m) for m in sorted(sub))
            rep.record_failure(f"proper W-invariant subspace found: span{{{names}}}")

    # (e) slot ratio
    rep.note(
        f"W(r,s) = (beta(s)/beta({s0})) * W(r,{s0}) exactly; printed ratio uses "
        "beta(0) in the denominator, which the oracle avoids"
    )
    return rep


# -- the loop-algebra structure of the omega inner derivations --------------

_SL2 = {
    ("h", "e"): (2, "e"),
    ("e", "h"): (-2, "e"),
    ("h", "f"): (-2, "f"),
    ("f", "h"): (2, "f"),
    ("e", "f"): (1, "h"),
    ("f", "e"): (-1, "h"),
}

_SIGMA = {"q": "h", "z": "e", "x": "f"}


def sl2_loop_bracket(a: Dict[tuple, Rational], b: Dict[tuple, Rational]) -> Dict[tuple, Rational]:
    """Bracket on sl2 tensored with Laurent polynomials: [g u^i, g' u^j]
    = [g, g'] u^{i+j} with the standard sl2 constants on (h, e, f)."""
    pairs = []
    for (g1, d1), c1 in a.items():
        for (g2, d2), c2 in b.items():
            rule = _SL2.get((g1, g2))
            if rule is not None:
                coef, g3 = rule
                pairs.append(((g3, d1 + d2), c1 * c2 * coef))
    return add_into({}, pairs)


def verify_sl2_laurent(bound: int = 5) -> VerdictReport:
    """Check that sending q_r, z_r, x_r to h, e, f tensor the r-th Laurent
    power is a Lie homomorphism, for all parameters up to the bound.

    Every q/z/x commutator is decomposed by the oracle and compared with
    the abstract loop-algebra bracket of the images; sign conventions are
    resolved by the oracle, never copied from the printed proof lines.
    """
    rep = VerdictReport("sl2-laurent", {"bound": bound})
    gens = GeneratorTable()
    pairs = 0
    for t1 in ("q", "z", "x"):
        for t2 in ("q", "z", "x"):
            for r in range(-bound, bound + 1):
                for s in range(-bound, bound + 1):
                    pairs += 1
                    comm = gens(t1, r).commutator(gens(t2, s))
                    combo = gens.family("qzx", r + s).decompose(comm)
                    if combo is None:
                        rep.record_failure(
                            f"[{t1}_{r}, {t2}_{s}] leaves the q/z/x span"
                        )
                        continue
                    image = add_into({}, (((_SIGMA[tag], m), c) for (tag, m), c in combo.items()))
                    abstract = sl2_loop_bracket(
                        {(_SIGMA[t1], r): 1}, {(_SIGMA[t2], s): 1}
                    )
                    if image != abstract:
                        rep.record_failure(
                            f"sigma([{t1}_{r}, {t2}_{s}]) = {image} but "
                            f"[sigma({t1}_{r}), sigma({t2}_{s})] = {abstract}"
                        )
    rep.stats["pairs_checked"] = pairs
    if rep.status == PASS:
        rep.flag(
            "the map q -> h, z -> e, x -> f (tensor Laurent powers) is an exact "
            "homomorphism; the printed proof line for the (q, x) pair shows a "
            "'+2' where the consistent value on both sides is '-2' (sign slip, "
            "content unaffected)"
        )
    return rep
