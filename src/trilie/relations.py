"""Operator relations as data, and the operator checks of ad A.

The operator checks are relation data swept by one engine.  A
RelationGroup names a left side, the commutator [A_a, B_b] of two
generators of the call's GeneratorTable or one two-parameter operator
A(a, b), and an ordered list of Cases: a stratum of affine equalities and
inequalities in r, s, k (integer tuples), the relation
scale * lhs = sum of coefficient * generator at affine indices (a
coefficient is a constant times affine forms times beta atoms), the
paper's printed form where it differs, and the failure and flag texts.
RelationSweep.run visits each group's pairs (a, b) over two index ranges,
the first outer, takes the first case whose stratum holds, builds the
left side once, compares it with the check's own equality, decomposes it
only to write a mismatch text the report keeps, counts hits per case and
mismatches per group, and flags each printed form's first disagreement
with the oracle.  As [B_b, A_a] = -[A_a, B_b], a case that ``mirrors`` a
case of the swapped left side (with r and s swapped: the same scale, the
right side negated) lets a passed visit (a, b) decide the later (b, a)
without building either side; the mirror plan is read off the Case data
at each call, and an empty plan is the full sweep.

The checks here are Table 5.1, the linear independence of the published
operator families, the Section 3 structure of the weighted bracket's
inner derivations, the sl2 loop-algebra map and the three Witt-family
modules; the operators themselves are built in ``operators``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .brackets import OMEGA, FKBracket, TriBracketSpec
from .elements import FunctionalSpec
from .operators import (
    GeneratorTable,
    Operator,
    OperatorFamily,
    ad_w,
    ad_x,
    ad_y,
    invariant_line_structure,
    operator_rank,
    ops_equal,
)
from .polys import Rational, add_into, rat_str
from .report import PASS, ConfigError, VerdictReport, Window


# -- operator relations as data ----------------------------------------------
#
# A form is an integer tuple (a, b, c, d, e) for a*r + b*s + c*k + d*s0 + e.

Form = Tuple[int, int, int, int, int]
Forms = Tuple[Form, ...]

_R, _S, _K, _S0 = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)
_ZERO, _ONE, _MINUS_ONE = (0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, -1)
_R_PLUS_S, _R_MINUS_S, _S_MINUS_R = (1, 1, 0, 0, 0), (1, -1, 0, 0, 0), (-1, 1, 0, 0, 0)
_R_S_K, _S_K = (1, 1, 1, 0, 0), (0, 1, 1, 0, 0)


class Coef(NamedTuple):
    """const * prod(forms) * prod(beta(f) for f in betas)."""

    const: Rational = 1
    forms: Forms = ()
    betas: Forms = ()


_UNIT = Coef()


class Case(NamedTuple):
    """Where the ``eq`` forms vanish and the ``ne`` forms do not, scale * lhs
    is the sum of the (Coef, tag, index forms) terms of ``rhs``; ``printed``
    is the paper's (scale, first coefficient) where it differs."""

    rhs: tuple
    fail: str
    eq: Forms = ()
    ne: Forms = ()
    scale: Coef = _UNIT
    printed: Optional[Tuple[Coef, Coef]] = None
    flag: str = ""

    def holds(self, r: int, s: int, k: int, s0: int = 0) -> bool:
        for a, b, c, d, e in self.eq:
            if a * r + b * s + c * k + d * s0 + e:
                return False
        for a, b, c, d, e in self.ne:
            if not a * r + b * s + c * k + d * s0 + e:
                return False
        return True


class RelationGroup(NamedTuple):
    """The cases of the left side [A_a, B_b] (two tags) or A(a, b) (one tag),
    where (a, b) is (r, s), or (s, r) for ``order`` "sr"."""

    lhs: Tuple[str, ...]
    cases: Tuple[Case, ...]
    order: str = "rs"
    off_span: str = ""  # the failure text of a left side off the check's family
    span_first: bool = False  # decompose before comparing; off span is no hit


def _swapped(form: Form) -> Form:
    a, b, c, d, e = form
    return b, a, c, d, e


def _value_key(coef: Coef, swap: bool = False, sign: int = 1) -> tuple:
    """sign * coef, with r and s swapped if ``swap``, as (constant, affine
    factors, beta atoms): each factor's sign is pulled into the constant and
    beta atoms are kept as they are, so equal keys have equal values."""
    const, forms = sign * coef.const, []
    for form in coef.forms:
        form = _swapped(form) if swap else form
        if next((x for x in form if x), 0) < 0:
            const, form = -const, tuple(-x for x in form)
        forms.append(form)
    return const, tuple(sorted(forms)), tuple(sorted(_swapped(f) if swap else f for f in coef.betas))


def mirrors(case: Case, other: Case) -> bool:
    """Whether ``case`` of [A_a, B_b] at (r, s) decides ``other`` of
    [B_b, A_a] at (s, r).  The commutator is antisymmetric, so with r and s
    swapped ``case`` must have other's scale and, term for term, its right
    side negated."""

    def terms(of: Case, swap: bool, sign: int) -> Counter:
        return Counter(
            (_value_key(coef, swap, sign), tag, tuple(map(_swapped, index)) if swap else index)
            for coef, tag, index in of.rhs
        )

    return _value_key(case.scale, True) == _value_key(other.scale) and terms(case, True, -1) == terms(other, False, 1)


def _mirror_plan(sweep: Sequence[tuple]) -> Dict[Tuple[int, int], Tuple[int, frozenset]]:
    """(entry g, case) -> (h, the cases of entry h that decide it), where
    entry h <= g is the first with the left tags swapped (g itself for one
    tag twice) in the same order; one-tag and span-first groups, and an
    entry before its mirror, have none."""
    first: Dict[tuple, int] = {}
    for g, (group, _, _) in enumerate(sweep):
        first.setdefault(group.lhs, g)
    plan = {}
    for g, (group, _, _) in enumerate(sweep):
        if len(group.lhs) != 2 or group.span_first:
            continue
        h = g if group.lhs[0] == group.lhs[1] else first.get(group.lhs[::-1])
        if h is None or h > g or sweep[h][0].span_first or sweep[h][0].order != group.order:
            continue
        for c, case in enumerate(group.cases):
            cases = frozenset(d for d, other in enumerate(sweep[h][0].cases) if mirrors(other, case))
            if cases:
                plan[g, c] = h, cases
    return plan


class RelationSweep:
    """The relation engine of one check call.  Texts are format templates
    over r, s, k, s0, the left tags A and B, the first right-hand term's
    coefficient c (over the scale) and index i, ``lhs`` (off span) and the
    fields ``explain(combo, fields)`` adds for a decomposed mismatch."""

    def __init__(
        self, rep: VerdictReport, gens: GeneratorTable, *, k: int = 0, s0: int = 0,
        functional: Optional[FunctionalSpec] = None, window: Optional[Window] = None,
        family: Optional[Callable[[int], OperatorFamily]] = None,
        explain: Optional[Callable[[dict, dict], dict]] = None, memo: bool = False, degree_fail: str = "",
    ):
        self.rep, self.gens, self.k, self.s0 = rep, gens, k, s0
        self.functional, self.window, self.family, self.explain = functional, window, family, explain
        self.degree_fail, self._lhs, self._combos = degree_fail, {} if memo else None, {}

    def lhs(self, group: RelationGroup, a: int, b: int) -> Operator:
        """The left side at (a, b); with ``memo`` a commutator is kept for the call."""
        if len(group.lhs) == 1:
            return self.gens.build(group.lhs[0], a, b)
        op = None if self._lhs is None else self._lhs.get((group.lhs, a, b))
        if op is None:
            op = self.gens(group.lhs[0], a).commutator(self.gens(group.lhs[1], b))
            if self._lhs is not None:
                self._lhs[(group.lhs, a, b)] = op
        return op

    def decompose(self, group: RelationGroup, a: int, b: int) -> Optional[dict]:
        """The left side's decomposition in ``family(a + b)``, kept for the call."""
        key = (group.lhs, a, b)
        if key not in self._combos:
            self._combos[key] = self.family(a + b).decompose(self.lhs(group, a, b))
        return self._combos[key]

    def _at(self, forms: Forms, r: int, s: int) -> List[int]:
        k, s0 = self.k, self.s0
        return [a * r + b * s + c * k + d * s0 + e for a, b, c, d, e in forms]

    def _value(self, coef: Coef, r: int, s: int) -> Rational:
        k, s0, v = self.k, self.s0, coef.const
        for a, b, c, d, e in coef.forms:
            v *= a * r + b * s + c * k + d * s0 + e
        for a, b, c, d, e in coef.betas:
            v *= self.functional.beta(a * r + b * s + c * k + d * s0 + e)
        return v

    def _text(self, text: str, group: RelationGroup, case: Case, r: int, s: int, combo=None, **extra) -> str:
        fields = {"r": r, "s": s, "k": self.k, "s0": self.s0, "A": group.lhs[0], "B": group.lhs[-1]}
        if case.rhs:
            coef, _, index = case.rhs[0]
            c = Fraction(self._value(coef, r, s)) / self._value(case.scale, r, s)
            fields.update(c=rat_str(c), i=self._at(index, r, s)[0])
        if combo is not None:
            extra = self.explain(combo, fields)
        return text.format(**fields, **extra)

    def _mismatch(self, group: RelationGroup, case: Case, r: int, s: int, a: int, b: int, lhs: Operator) -> str:
        """The failure text of a left side at (a, b) that disagrees with its
        case: the decomposition's text, or the off-span text when it has none."""
        if not group.off_span or group.span_first:
            return self._text(case.fail, group, case, r, s)
        combo = self.decompose(group, a, b)
        if combo is None:
            return self._text(group.off_span, group, case, r, s, lhs=lhs)
        return self._text(case.fail, group, case, r, s, combo)

    def run(self, sweep: Sequence[tuple], interleave: bool = False) -> Tuple[List[List[int]], List[int]]:
        """Check the (group, outer range, inner range) entries in order, or
        pair by pair across entries of one domain with ``interleave``;
        returns the hits per case and the mismatches of each entry.

        A commutator is antisymmetric, so in order (not ``interleave``) a
        visit (a, b) whose case ``mirrors`` a case of its swapped left side
        is decided by the mirror visit (b, a) if that came earlier in the
        sweep, fell in such a case and neither mismatched nor failed the
        degree check: it counts its hit and its printed form's flag, and
        builds no left or right side.  A diagonal visit [A_a, A_a] of a
        self-mirrored case is decided alone: both of its sides are zero.
        Every other visit, among them the mirror of a failed one, is
        checked, so the failure records are those of the full sweep."""
        hits, misses = [[0] * len(group.cases) for group, _, _ in sweep], [0] * len(sweep)
        if interleave:
            visits = ((g, a, b) for a in sweep[0][1] for b in sweep[0][2] for g in range(len(sweep)))
        else:
            visits = ((g, a, b) for g, (_, outer, inner) in enumerate(sweep) for a in outer for b in inner)
        fail, flagged, gens, k, s0 = self.rep.record_failure, set(), self.gens, self.k, self.s0
        mirror_plan, failed = {} if interleave else _mirror_plan(sweep), set()
        # per entry: the group, whether a is r, its only case if that has no
        # stratum, and the mirror plan of each case
        plans = [
            (group, group.order == "rs", None if group.cases[1:] or group.cases[0][2:4] != ((), ()) else group.cases[0],
             [mirror_plan.get((g, c)) for c in range(len(group.cases))])
            for g, (group, _, _) in enumerate(sweep)
        ]
        # per entry: the position of each index in its outer and its inner range
        spots = [({a: i for i, a in enumerate(outer)}, {b: j for j, b in enumerate(inner)}) for _, outer, inner in sweep]

        def decided(g: int, c: int, a: int, b: int, h: int, cases: frozenset) -> bool:
            """Whether the mirror (b, a) of entry h came earlier, fell in one
            of ``cases`` and passed, or (a, b) is the diagonal of a
            self-mirrored case."""
            outer, inner = spots[h]
            i, j = outer.get(b), inner.get(a)
            if i is None or j is None or (h, b, a) in failed:
                return False
            if h == g and (i, j) >= (outer[a], inner[b]):  # a later mirror, or the diagonal
                return a == b and c in cases
            r, s = (b, a) if plans[h][1] else (a, b)
            return next((d for d, case in enumerate(sweep[h][0].cases) if case.holds(r, s, k, s0)), None) in cases

        for g, a, b in visits:
            group, rs, case, mirrored = plans[g]
            r, s, c = (a, b, 0) if rs else (b, a, 0)
            if case is None:
                for c, case in enumerate(group.cases):
                    if case.holds(r, s, k, s0):
                        break
                else:
                    continue
            if group.span_first and self.decompose(group, a, b) is None:
                fail(self._text(group.off_span, group, case, r, s))
                continue
            hits[g][c] += 1
            if case.printed and (g, c) not in flagged:
                scale, coef = case.printed
                p0 = self._value(scale, r, s)
                if not p0 or (self._value(coef, r, s) * self._value(case.scale, r, s)
                              != self._value(case.rhs[0][0], r, s) * p0):
                    flagged.add((g, c))
                    suffix = "" if p0 else "; the printed form divides by zero"
                    self.rep.flag(self._text(case.flag, group, case, r, s) + suffix)
            if mirrored[c] and decided(g, c, a, b, *mirrored[c]):
                continue
            lhs = self.lhs(group, a, b)
            if self.degree_fail and lhs.max_poly_degree() > 1:
                failed.add((g, a, b))
                fail(self._text(self.degree_fail, group, case, r, s))
            if not case.rhs:  # the zero relation is structural
                agrees = not lhs
            else:  # the scaled generators' terms, summed without building each operator
                want = {}
                for coef, tag, index in case.rhs:
                    x = self._value(coef, r, s)
                    if x:
                        terms = gens(tag, *[u * r + v * s + w * k + y * s0 + z for u, v, w, y, z in index]).terms
                        if want:
                            add_into(want, ((key, x * value) for key, value in terms.items()))
                        else:
                            want = {key: x * value for key, value in terms.items()}
                scaled = lhs if case.scale is _UNIT else lhs.scale(self._value(case.scale, r, s))
                if self.functional is None:
                    agrees = scaled.terms == want
                else:
                    agrees = ops_equal(scaled, Operator(want), self.functional, self.window)[0]
            if not agrees:
                failed.add((g, a, b))
                misses[g] += 1
                fail(partial(self._mismatch, group, case, r, s, a, b, lhs))
        return hits, misses


def _graded(left: str, right: str, term: Optional[tuple], fail: str, off_span: str) -> RelationGroup:
    """[left_r, right_s] = coef * tag_{r+s} for term = (coef, tag), or 0 for None."""
    rhs = () if term is None else ((term[0], term[1], (_R_PLUS_S,)),)
    return RelationGroup((left, right), (Case(rhs, fail),), off_span=off_span)


def _graded_check(rep: VerdictReport, bound: int, groups: tuple, tags: str, **options) -> List[int]:
    """Sweep graded groups over |r|, |s| <= bound, a mismatch decomposed in
    the generators ``tags`` at index r+s; returns the mismatches per group."""
    gens = GeneratorTable()
    indices = range(-bound, bound + 1)
    sweep = RelationSweep(rep, gens, family=partial(gens.family, tags), **options)
    hits, misses = sweep.run([(group, indices, indices) for group in groups])
    rep.stats["pairs_checked"] = sum(map(sum, hits))
    return misses


# -- Table 5.1: the ten p/q/x/z bracket rows as printed -----------------------

_ROW = "[{A}_{r}, {B}_{s}]: printed row disagrees; oracle gives "

TABLE_5_1 = tuple(_graded(*row, _ROW + "{detail}", _ROW + "channels: {lhs}") for row in (
    ("p", "p", (Coef(1, (_R_MINUS_S,)), "p")),  # (r-s) p_{r+s}
    ("p", "q", (Coef(-1, (_S,)), "q")),  # -s q_{r+s}
    ("p", "x", (Coef(-1, (_S,)), "x")),  # -s x_{r+s}
    ("p", "z", (Coef(-1, (_S,)), "z")),  # -s z_{r+s}
    ("q", "q", None),
    ("q", "x", (Coef(-2), "x")),  # -2 x_{r+s}
    ("q", "z", (Coef(2), "z")),  # 2 z_{r+s}
    ("x", "x", None),
    ("z", "z", None),
    ("z", "x", (Coef(), "q")),  # q_{r+s}
))


def _combination(combo: dict, fields: dict) -> dict:
    text = " + ".join(f"{rat_str(c)}*{tag}_{m}" for (tag, m), c in sorted(combo.items()))
    return {"detail": text or "0"}


def verify_table_5_1(bound: int = 5) -> VerdictReport:
    """Re-derive the ten p/q/x/z bracket rows with the commutator oracle
    and compare against the printed right-hand sides as exact operators.

    On any mismatch the oracle's decomposition of the commutator in the
    graded p/q/x/z set is reported as the corrected right-hand side; each
    row without one gets the stat row_<left><right> = "confirmed".
    """
    rep = VerdictReport("table-5-1", {"bound": bound})
    misses = _graded_check(
        rep, bound, TABLE_5_1, "pqxz", explain=_combination,
        degree_fail="[{A}_{r}, {B}_{s}] has coefficient degree > 1 after cancellation",
    )
    for row, missed in zip(TABLE_5_1, misses):
        if not missed:
            rep.stats["row_" + "".join(row.lhs)] = "confirmed"
    rep.stats["corrections"] = sum(misses)
    return rep


# -- linear independence of the published operator families ----------------


def _reductions(tag: str, **printed) -> Tuple[Case, Case]:
    """(r+s) tag(r,s) = (r-s) tag(r+s,0), and tag(r,-r) = r tag(1,-1) for r != 0,
    the second with the paper's printed form where given."""
    return (
        Case(((Coef(1, (_R_MINUS_S,)), tag, (_R_PLUS_S, _ZERO)),), tag + "({r},{s}) reduction identity fails",
             ne=(_R_PLUS_S,), scale=Coef(1, (_R_PLUS_S,))),
        Case(((Coef(1, (_R,)), tag, (_ONE, _MINUS_ONE)),), tag + "({r},{s}) != {r}*" + tag + "(1,-1)",
             eq=(_R_PLUS_S,), ne=(_R,), **printed),
    )


BASIS_OMEGA = (
    RelationGroup(("W",), (
        # (r-s) W(r,s) = r W(r-s,0) - s W(0,s-r)
        Case(((Coef(1, (_R,)), "W", (_R_MINUS_S, _ZERO)), (Coef(-1, (_S,)), "W", (_ZERO, _S_MINUS_R))),
             "W({r},{s}) reduction identity fails", ne=(_R_MINUS_S,), scale=Coef(1, (_R_MINUS_S,))),
        # W(r,r) = (1-r) W(0,0) + r W(1,1)
        Case(((Coef(1, ((-1, 0, 0, 0, 1),)), "W", (_ZERO, _ZERO)), (Coef(1, (_R,)), "W", (_ONE, _ONE))),
             "W({r},{s}) diagonal reduction fails", eq=(_R_MINUS_S,)),
    )),
    RelationGroup(("X",), _reductions("X")),
    RelationGroup(("Y",), _reductions("Y")),
)

BASIS_FK = (
    RelationGroup(("X",), _reductions(
        "X",
        printed=(Coef(1, (_R,)), Coef()),  # r X(r,-r) = X(1,-1)
        flag="printed scaling X(r,-r) = (1/r)*X(1,-1) is off: the oracle gives "
        "X(r,-r) = r*X(1,-1) (they agree only for r = +/-1)",
    )),
    # beta(s0) W(r,s) = beta(s) W(r,s0)
    RelationGroup(("W",), (Case(
        ((Coef(1, (), (_S,)), "W", (_R, _S0)),), "W({r},{s}) is not {c} * W({r},{s0})", scale=Coef(1, (), (_S0,))
    ),)),
)


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
        spec: TriBracketSpec = OMEGA
    elif algebra != "fk":
        raise ConfigError("algebra must be 'omega' or 'fk'")
    elif functional is None:
        raise ConfigError("fk basis independence needs a functional")
    elif functional.beta(s0) == 0:
        raise ConfigError(f"beta({s0}) vanishes; pick s0 with a nonzero weight")
    else:
        spec = FKBracket(k, functional)
    # the ops members and the right-hand sides recur across (r, s), so each
    # is built once per call; a left-hand side is used once and not kept
    ops = GeneratorTable({"W": partial(ad_w, spec), "X": partial(ad_x, spec), "Y": partial(ad_y, spec)})
    indices = window.indices()
    if algebra == "omega":
        family = [ops("W", 0, 0), ops("W", 1, 1), ops("X", 1, -1), ops("Y", 1, -1)]
        for r in indices:
            if r != 0:
                family += [ops("W", r, 0), ops("W", 0, r), ops("X", r, 0), ops("Y", r, 0)]
        rank, mode = operator_rank(family)
        groups, sweep = BASIS_OMEGA, RelationSweep(rep, ops)
    else:
        family = [ops("W", s, s0) for s in indices]
        family += [ops("X", r, 0) for r in indices if r != 0] + [ops("X", 1, -1)]
        rank, mode = operator_rank(family, functional, window)
        groups, sweep = BASIS_FK, RelationSweep(rep, ops, s0=s0, functional=functional, window=window)
    rep.stats["family_size"] = len(family)
    rep.stats["rank"] = rank
    rep.stats["decision"] = mode
    if mode == "window-decided":
        rep.note(
            "finite-support weight: rank and operator equalities decided by "
            "exhaustive window evaluation"
        )
    if rank != len(family):
        rep.record_failure(f"rank {rank} < ops size {len(family)}")
    sweep.run([(group, indices, indices) for group in groups], interleave=algebra == "omega")
    if algebra == "omega":
        rep.stats["reduction_identities"] = "checked"
    else:
        rep.note(
            f"W(r,s) = (beta(s)/beta({s0})) * W(r,{s0}); the printed ratio divides by "
            "beta(0), which may vanish for admissible weights, so the oracle "
            f"normalizes by beta({s0}) instead"
        )
    return rep


# -- structure of the inner derivations of the fk algebra ------------------
#
# W_s is W(s, s0); X_m is X(m, 0), with X_0 standing for X(1, -1).

_B0 = (_S0,)  # the weight beta(s0)
_PIVOT = ((Coef(1, ((1, 0, 2, 0, 0),), _B0), "X", (_R,)),)  # (r+2k) beta(s0) X_r

SECTION3 = (
    # (a) [W_r, W_s] = beta(s0) (s-r) W_{r+s+k}
    RelationGroup(("W", "W"), (Case(
        ((Coef(1, (_S_MINUS_R,), _B0), "W", (_R_S_K,)),),
        "[W({r},{s0}), W({s},{s0})] != beta({s0})*({s}-{r})*W({i},{s0})",
    ),)),
    # (b) [X_r, X_s] = 0
    RelationGroup(("X", "X"), (
        Case((), "[X({r},0), X({s},0)] != 0", ne=(_R, _S)),
        Case((), "[X({r},0), X(1,-1)] != 0", eq=(_S,), ne=(_R,)),
        Case((), "[X(1,-1), X({s},0)] != 0", eq=(_R,), ne=(_S,)),
        Case((), "[X(1,-1), X(1,-1)] != 0", eq=(_R, _S)),
    )),
    # (c) for r != 0, (r+s+k) [W_s, X_r] = r (r-s+k) beta(s0) X_{r+s+k}; at r+s = -k,
    # [W_s, X_r] = -r s beta(s0) X_0 (printed: s [W_s, X_r] = -r beta(s0) X_0) if s != 0, else 0
    RelationGroup(("W", "X"), (
        Case(((Coef(1, (_R, (1, -1, 1, 0, 0)), _B0), "X", (_R_S_K,)),),
             "branch 1 coefficient mismatch at (r={r}, s={s})", ne=(_R_S_K, _R), scale=Coef(1, (_R_S_K,))),
        Case(((Coef(-1, (_R, _S), _B0), "X", (_ZERO,)),),
             "branch 2 oracle form fails at (r={r}, s={s})", eq=(_R_S_K,), ne=(_S, _R),
             printed=(Coef(1, (_S,)), Coef(-1, (_R,), _B0)),
             flag="printed branch coefficient r*beta/s on the swapped generator "
             "is off: the oracle gives r*s*beta (they agree only for s = +/-1); "
             "first mismatch at (r={r}, s={s})"),
        Case((), "branch 3 expects the zero operator at (r={r}, s={s})", eq=(_R_S_K, _S), ne=(_R,)),
    ), order="sr", off_span="[W({s},{s0}), X({r},0)] leaves the X span", span_first=True),
    # (c) (s+k) [W_s, X_0] = 2 (k-s) beta(s0) X_{s+k}; at s = -k, [W_s, X_0] = 2k beta(s0) X_0
    # (printed: s [W_s, X_0] = -2 beta(s0) X_0)
    RelationGroup(("W", "X"), (
        Case(((Coef(2, ((0, -1, 1, 0, 0),), _B0), "X", (_S_K,)),),
             "[W({s},{s0}), X(1,-1)] mismatch at s={s}", eq=(_R,), ne=(_S_K,), scale=Coef(1, (_S_K,))),
        Case(((Coef(2, (_K,), _B0), "X", (_ZERO,)),), "[W({s},{s0}), X(1,-1)] oracle form fails", eq=(_R, _S_K),
             printed=(Coef(1, (_S,)), Coef(-2, (), _B0)),
             flag="printed coefficient (2*beta/s at s=-k) disagrees with the oracle "
             "value 2*k*beta for k={k}"),
    ), order="sr"),
    # (d) the pivot W_{-k} acts diagonally on the X family
    RelationGroup(("W", "X"), (
        Case(_PIVOT, "W({s},{s0}) does not act diagonally on X({r},0)", eq=(_S_K,), ne=(_R,)),
        Case(_PIVOT, "W({s},{s0}) does not act diagonally on X(1,-1)", eq=(_S_K, _R)),
    ), order="sr"),
)


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

    (a)-(c) and the diagonal pivot of (d) are ``SECTION3``; each [W_s, X_m]
    and its decomposition in the X family is computed once per call.
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
    gens = GeneratorTable({
        "W": lambda s: ad_w(spec, s, s0),
        "X": lambda m: ad_x(spec, 1, -1) if m == 0 else ad_x(spec, m, 0),
    })
    # labelled X basis over an index range wide enough for one action hop
    reach = range(min(2 * window.lo + k, window.lo), max(2 * window.hi + k, window.hi) + 1)
    extended = OperatorFamily([(m, gens("X", m)) for m in reach], functional)
    sweep = RelationSweep(
        rep, gens, k=k, s0=s0, functional=functional, window=window, family=lambda m: extended, memo=True
    )
    witt, xx, on_x, on_x0, pivot = SECTION3
    labels = list(window.indices())
    x_params = [r for r in labels if r != 0] + [0]
    hits, misses = sweep.run([
        (witt, labels, labels),
        (xx, x_params, x_params),
        (on_x, labels, labels),
        (on_x0, labels, [0]),
        (pivot, [-k], labels),
    ])
    rep.stats["witt_pairs"] = sum(hits[0])
    rep.stats["xx_pairs"] = sum(hits[1])
    for branch, n in enumerate(hits[2], 1):
        rep.stats[f"branch_{branch}_hits"] = n

    # (d) invariant-subspace search: the pivot's eigenvalues, then closures
    eigen: Dict[object, Rational] = {m: beta_s0 * (m + 2 * k) for m in labels}
    edges: Dict[object, set] = {m: set() for m in labels}
    escapes = 0
    for s in labels:
        for m in labels:
            for target in sweep.decompose(on_x, s, m) or {}:
                if target in edges:
                    if target != m:
                        edges[m].add(target)
                else:
                    escapes += 1
    structure = invariant_line_structure(labels, eigen, edges)
    rep.stats["action_escapes"] = escapes
    if not misses[4] and structure["irreducible"]:
        rep.stats["invariant_subspaces"] = "none proper (window-exact)"
    else:
        for sub in structure["minimal_proper"]:
            names = ", ".join("X(1,-1)" if m == 0 else f"X({m},0)" for m in sorted(sub))
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
_SIGMA_INVERSE = {g: tag for tag, g in _SIGMA.items()}

# [t_r, u_s] = c v_{r+s} where [sigma(t), sigma(u)] = c sigma(v) in sl2
SL2_LAURENT = tuple(
    _graded(
        t, u, None if rule is None else (Coef(rule[0]), _SIGMA_INVERSE[rule[1]]),
        "sigma([{A}_{r}, {B}_{s}]) = {image} but [sigma({A}_{r}), sigma({B}_{s})] = {abstract}",
        "[{A}_{r}, {B}_{s}] leaves the q/z/x span",
    )
    for t in _SIGMA
    for u in _SIGMA
    for rule in [_SL2.get((_SIGMA[t], _SIGMA[u]))]
)


def _sigma_images(combo: dict, fields: dict) -> dict:
    """sigma of the oracle's decomposition, and the loop-algebra bracket
    [g u^r, g' u^s] = [g, g'] u^(r+s) of the images of the two sides."""
    rule = _SL2.get((_SIGMA[fields["A"]], _SIGMA[fields["B"]]))
    return {
        "image": add_into({}, (((_SIGMA[tag], m), c) for (tag, m), c in combo.items())),
        "abstract": {} if rule is None else {(rule[1], fields["r"] + fields["s"]): rule[0]},
    }


def verify_sl2_laurent(bound: int = 5) -> VerdictReport:
    """Check that sending q_r, z_r, x_r to h, e, f tensor the r-th Laurent
    power is a Lie homomorphism, for all parameters up to the bound.

    Each q/z/x commutator is compared, as an exact operator, with the sl2
    bracket of the images pulled back through the map; a mismatch is
    decomposed by the oracle to print the images of both sides.  As q maps
    L to L and M to M, x maps M to L and z maps L to M, the three families
    are independent, so this decides as decomposing every commutator
    would.  Sign conventions are resolved by the oracle, never copied from
    the printed proof lines.
    """
    rep = VerdictReport("sl2-laurent", {"bound": bound})
    _graded_check(rep, bound, SL2_LAURENT, "qzx", explain=_sigma_images)
    if rep.status == PASS:
        rep.flag(
            "the map q -> h, z -> e, x -> f (tensor Laurent powers) is an exact "
            "homomorphism; the printed proof line for the (q, x) pair shows a "
            "'+2' where the consistent value on both sides is '-2' (sign slip, "
            "content unaffected)"
        )
    return rep


# -- the three Witt-family modules inside the omega inner derivations --------


def witt_action(fam: str) -> Tuple[RelationGroup, RelationGroup]:
    """[p_r, fam_s] = -s fam_{r+s}: the action row, and its r = 0 slice,
    the p_0 weight lines."""
    rhs = ((Coef(-1, (_S,)), fam, (_R_PLUS_S,)),)
    return (
        RelationGroup(("p", fam), (Case(rhs, "[p_{r}, {B}_{s}] != {c}*{B}_{i}"),)),
        RelationGroup(("p", fam), (Case(rhs, "{B}_{s} is not a p_0 eigenline", eq=(_R,)),)),
    )


_FAMILY_OF = {1: "q", 2: "x", 3: "z"}


def witt_module_check(i: int, window: Window) -> VerdictReport:
    """Verdicts for the i-th generator family as a module over the p family.

    Verifies the action row as exact operator identities, the
    one-dimensionality of every p_0 weight line, and enumerates all
    invariant window subspaces under the literal bracket action.  The
    line at index 0 is annihilated by every p_r, so the printed
    irreducibility claim fails for the literal action and is flagged
    with the exact finding; under the degree-preserving bijection with
    the p family itself (the printed 'regular representation' reading)
    the same search finds no proper invariant subspace.
    """
    if i not in _FAMILY_OF:
        raise ValueError("module index must be 1, 2, or 3")
    fam = _FAMILY_OF[i]
    gens = GeneratorTable()
    rep = VerdictReport("witt-module", {"family": fam, "window": str(window)})

    # (a) the action row [p_r, fam_s] = -s fam_{r+s}, then (b) its p_0 weight lines
    action, weights = witt_action(fam)
    sweep = RelationSweep(rep, gens, memo=True)
    labels = list(window.indices())
    hits, _ = sweep.run([(action, labels, labels), (weights, [0], labels)])
    rep.stats["action_pairs"] = hits[0][0]
    eigen: Dict[object, object] = {s: -s for s in labels}
    distinct = len(set(eigen.values())) == len(eigen)
    rep.stats["weight_lines"] = len(eigen)
    rep.stats["weights_distinct"] = str(distinct)
    if not distinct:
        rep.record_failure("p_0 weights are not pairwise distinct on the window")

    # (c) literal-action invariant subspaces: edge s -> r+s iff [p_r, fam_s] != 0
    edges = {
        s: {s + r for r in labels if r != 0 and s + r in window and sweep.lhs(action, r, s)}
        for s in labels
    }
    literal = invariant_line_structure(labels, eigen, edges)
    if literal["minimal_proper"] == [frozenset({0})]:
        rep.flag(
            f"literal bracket action: span{{{fam}_0}} is a trivial submodule "
            "(every p_r kills it), so the printed irreducibility claim fails; "
            "all other weight lines generate the full window span"
        )
    elif literal["minimal_proper"]:
        for sub in literal["minimal_proper"]:
            rep.record_failure(
                f"unexpected invariant subspace {{{', '.join(map(str, sorted(sub)))}}}"
            )
    else:
        rep.note("no proper invariant subspace under the literal action")

    # regular-representation reading: transport the p-family adjoint action
    adj_edges = {
        s: {s + r for r in window.indices() if r != s and s + r in window}
        for s in labels
    }
    adjoint = invariant_line_structure(labels, eigen, adj_edges)
    if adjoint["irreducible"]:
        rep.note(
            "under the degree-preserving bijection with the p family the window "
            "search finds no proper invariant subspace (regular-representation reading)"
        )
    else:
        rep.record_failure("adjoint transport unexpectedly reducible on the window")

    # (d) the bijection does not intertwine the literal action: the oracle's
    # coefficient of [p_r, p_s] on p_{r+s} against that of [p_r, fam_s] on fam_{r+s}
    def coefficient(tag: str, op: Operator, m: int) -> Optional[Rational]:
        combo = gens.family(tag, m).decompose(op)
        return None if combo is None else combo.get((tag, m), 0)

    for r in labels:
        for s in labels:
            transported = coefficient("p", gens("p", r).commutator(gens("p", s)), r + s)
            acted = coefficient(fam, sweep.lhs(action, r, s), r + s)
            if transported != acted:
                rep.flag(
                    f"the bijection p_r -> {fam}_r is not equivariant for the literal "
                    f"action: at (r={r}, s={s}) the transported bracket coefficient is "
                    f"{transported} while the action row gives {acted}; the printed "
                    "isomorphism claim holds only in the regular-representation reading"
                )
                return rep
    return rep
