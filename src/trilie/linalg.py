"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping orderable keys to nonzero rationals.  The
SpanSolver keeps a fully reduced echelon basis (pivot normalized to 1,
pivot column cleared everywhere else, rows ordered by pivot key), so
subspace equality is structural.  A vector is reduced by looking up the
pivots it holds: no row has an entry at another row's pivot.  The
solver has one mode, reduce and add: a caller that wants a vector's
combination over named generators adds each generator with a unit entry
at its own label coordinate, as in the augmented reduction [A | I], and
reads the combination off the residual's label entries
(``operators.OperatorFamily``).

``null_space`` reads a kernel basis off the same solver: each equation
is scaled to a primitive integer row and only distinct rows are added.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from .polys import integral, vec_add_scaled, vec_scale

Vec = Dict[Hashable, object]


class SpanSolver:
    """Incremental reduced row echelon span."""

    def __init__(self):
        self.rows: List[Vec] = []          # reduced rows, pivot coefficient 1
        self.pivots: List[Hashable] = []   # pivot key of each row, ascending
        self._row_at: Dict[Hashable, Vec] = {}  # pivot -> its row

    @classmethod
    def from_unit_vectors(cls, keys: Sequence[Hashable]) -> "SpanSolver":
        """The span of the unit vectors at ascending distinct keys: the
        state that adding them in that order reaches."""
        solver = cls()
        solver.rows = [{k: 1} for k in keys]
        solver.pivots = list(keys)
        solver._row_at = dict(zip(solver.pivots, solver.rows))
        return solver

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """The residual of vec, a new map with no entry at any pivot.  Only
        the pivots held by vec are visited, ascending: a row adds no entry
        at any other pivot, so this is the full pivot scan's residual."""
        residual = dict(vec)
        row_at = self._row_at
        hits = [k for k in vec if k in row_at]
        if len(hits) > 1:
            hits.sort()
        for pk in hits:
            vec_add_scaled(residual, row_at[pk], -residual[pk])
        return residual

    def add(self, vec: Vec) -> bool:
        """Insert a generator; True if the rank grew."""
        residual = self.reduce(vec)
        if not residual:
            return False
        pivot = min(residual)
        row = vec_scale(residual, Fraction(1, 1) / Fraction(residual[pivot]))
        # clear the new pivot from existing rows to stay fully reduced
        for existing in self.rows:
            c = existing.get(pivot)
            if c:
                vec_add_scaled(existing, row, -c)
        pos = bisect_left(self.pivots, pivot)
        self.rows.insert(pos, row)
        self.pivots.insert(pos, pivot)
        self._row_at[pivot] = row
        return True

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)


def span_equal(a: SpanSolver, b: SpanSolver) -> bool:
    return a.pivots == b.pivots and a.rows == b.rows


def _primitive_row(eq: Vec, order: Dict[Hashable, int]) -> Tuple[Tuple[int, int], ...]:
    """The equation over column numbers as a primitive integer row, sparse
    and ascending, with a positive leading entry; () for a zero equation."""
    items = sorted((order[k], v) for k, v in integral(eq)[1].items() if v)
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
