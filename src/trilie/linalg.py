"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping orderable keys to nonzero rationals.  The
SpanSolver keeps a fully reduced echelon basis (pivot normalized to 1,
pivot column cleared everywhere else, rows ordered by pivot key), so
subspace equality is structural.  A vector is reduced by looking up the
pivots it holds: no row has an entry at another row's pivot.  Membership
certificates (coefficients over the inserted generators) are built on
the first ``express`` and kept until the rank grows again, so callers
that only add and compare spans never pay for them.

``null_space`` reads a kernel basis off the same solver: each equation
is scaled to a primitive integer row and only distinct rows are added.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .polys import normalize_rational, vec_add_scaled, vec_scale

Vec = Dict[Hashable, object]


class SpanSolver:
    """Incremental reduced row echelon span with membership certificates.

    ``express`` answers over the tags of the generators that grew the rank.
    Its certificates are built on first use, by replaying those generators
    with their coefficient rows, and an ``add`` that grows the rank drops
    them again.
    """

    def __init__(self):
        self.rows: List[Vec] = []          # reduced rows, pivot coefficient 1
        self.pivots: List[Hashable] = []   # pivot key of each row, ascending
        self._row_at: Dict[Hashable, Vec] = {}  # pivot -> its row
        self._grown: List[Tuple[Hashable, Vec]] = []  # (tag, vec) of each rank-growing add
        self._combos: Optional[Dict[Hashable, Vec]] = None  # pivot -> row over tags
        self._n_inserted = 0

    @classmethod
    def from_unit_vectors(cls, keys: Sequence[Hashable]) -> "SpanSolver":
        """The span of the unit vectors at ascending distinct keys: the
        state that adding them in that order reaches."""
        solver = cls()
        solver.rows = [{k: 1} for k in keys]
        solver.pivots = list(keys)
        solver._row_at = dict(zip(solver.pivots, solver.rows))
        solver._grown = [(i, {k: 1}) for i, k in enumerate(keys)]
        solver._n_inserted = len(solver.rows)
        return solver

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: Vec, combos: Optional[Dict[Hashable, Vec]] = None) -> Tuple[Vec, Vec]:
        """(residual, combination over tags when combos are given).  Only the
        pivots held by vec are visited, ascending: a row adds no entry at
        any other pivot, so this is the full pivot scan's residual."""
        residual = dict(vec)
        combo: Vec = {}
        row_at = self._row_at
        hits = [k for k in vec if k in row_at]
        if len(hits) > 1:
            hits.sort()
        for pk in hits:
            c = residual[pk]
            vec_add_scaled(residual, row_at[pk], -c)
            if combos is not None:
                vec_add_scaled(combo, combos[pk], c)
        return residual, combo

    def _insert(self, residual: Vec, combo: Vec, tag: Hashable, combos) -> None:
        """Make the nonzero residual a row; with combos, keep them too."""
        pivot = min(residual)
        inv = Fraction(1, 1) / Fraction(residual[pivot])
        row = vec_scale(residual, inv)
        if combos is not None:
            rcombo = vec_scale(combo, -inv)
            rcombo[tag] = normalize_rational(rcombo.get(tag, 0) + inv)
        # clear the new pivot from existing rows to stay fully reduced
        for pk, existing in zip(self.pivots, self.rows):
            c = existing.get(pivot)
            if c:
                vec_add_scaled(existing, row, -c)
                if combos is not None:
                    vec_add_scaled(combos[pk], rcombo, -c)
        pos = bisect_left(self.pivots, pivot)
        self.rows.insert(pos, row)
        self.pivots.insert(pos, pivot)
        self._row_at[pivot] = row
        if combos is not None:
            combos[pivot] = rcombo

    def add(self, vec: Vec, tag: Optional[Hashable] = None) -> bool:
        """Insert a generator; True if the rank grew."""
        if tag is None:
            tag = self._n_inserted
        self._n_inserted += 1
        residual, _ = self._reduce(vec)
        if not residual:
            return False
        self._insert(residual, {}, tag, None)
        self._grown.append((tag, dict(vec)))
        self._combos = None
        return True

    def _certificates(self) -> Dict[Hashable, Vec]:
        if self._combos is None:
            replay, combos = SpanSolver(), {}
            for tag, vec in self._grown:
                replay._insert(*replay._reduce(vec, combos), tag, combos)
            self._combos = combos
        return self._combos

    def contains(self, vec: Vec) -> bool:
        residual, _ = self._reduce(vec)
        return not residual

    def express(self, vec: Vec) -> Optional[Vec]:
        """Coefficients over inserted generator tags, or None if outside."""
        residual, combo = self._reduce(vec, self._certificates())
        if residual:
            return None
        return combo


def span_equal(a: SpanSolver, b: SpanSolver) -> bool:
    return a.pivots == b.pivots and a.rows == b.rows


def _primitive_row(eq: Vec, order: Dict[Hashable, int]) -> Tuple[Tuple[int, int], ...]:
    """The equation over column numbers as a primitive integer row, sparse
    and ascending, with a positive leading entry; () for a zero equation."""
    den = lcm(*(c.denominator for c in eq.values()))
    acc: Dict[int, int] = {}
    for k, c in eq.items():
        col = order[k]
        acc[col] = acc.get(col, 0) + c.numerator * (den // c.denominator)
    items = sorted((col, v) for col, v in acc.items() if v)
    if not items:
        return ()
    g = gcd(*(v for _, v in items))
    if items[0][1] < 0:
        g = -g
    return tuple((col, v // g) for col, v in items)


def null_space(equations: Iterable[Vec], unknowns: Sequence[Hashable]) -> List[Vec]:
    """Exact kernel basis of the homogeneous system, canonical RREF form.

    Each equation maps unknown keys to coefficients; the returned vectors
    set one free unknown to 1 (free unknowns in ascending key order).
    Repeated equations are dropped, the rest are scaled to primitive
    integer rows over column numbers, duplicate rows are dropped, and the
    distinct rows go to one SpanSolver, whose reduced rows give the kernel.
    """
    order = {u: i for i, u in enumerate(unknowns)}
    solver = SpanSolver()
    distinct = {tuple(eq.items()): eq for eq in equations if eq}
    for row in dict.fromkeys(_primitive_row(eq, order) for eq in distinct.values()):
        if row:
            solver.add(dict(row))
    # a pivot row has entries only right of its pivot, so each kernel
    # vector lists its pivot entries (ascending) before its free unknown
    pivot_rows = list(zip(solver.pivots, solver.rows))
    pivots = set(solver.pivots)
    basis: List[Vec] = []
    for fcol, u in enumerate(unknowns):
        if fcol in pivots:
            continue
        vec: Vec = {unknowns[pcol]: -row[fcol] for pcol, row in pivot_rows if fcol in row}
        vec[u] = 1
        basis.append(vec)
    return basis
