"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping orderable keys to nonzero rationals.  The
SpanSolver keeps a fully reduced echelon basis (pivot normalized to 1,
pivot column cleared everywhere else, rows ordered by pivot key), so
subspace equality is structural and every membership answer comes with
an exact coefficient certificate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .polys import add_into, normalize_rational

Vec = Dict[Hashable, object]


def vec_add_scaled(target: Vec, src: Vec, c) -> None:
    if c:
        add_into(target, ((k, c * v) for k, v in src.items()))


def vec_scale(v: Vec, c) -> Vec:
    if not c:
        return {}
    return {k: normalize_rational(c * x) for k, x in v.items()}


class SpanSolver:
    """Incremental reduced row echelon span with membership certificates."""

    def __init__(self):
        self.rows: List[Vec] = []          # reduced rows, pivot coefficient 1
        self.pivots: List[Hashable] = []   # pivot key of each row
        self.combos: List[Vec] = []        # row expressed over inserted generators
        self._n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Tuple[Vec, Vec]:
        """Reduce vec against the span; return (residual, combination)."""
        residual = dict(vec)
        combo: Vec = {}
        for i, pk in enumerate(self.pivots):
            c = residual.get(pk)
            if c:
                vec_add_scaled(residual, self.rows[i], -c)
                vec_add_scaled(combo, self.combos[i], c)
        return residual, combo

    def add(self, vec: Vec, tag: Optional[Hashable] = None) -> bool:
        """Insert a generator; True if the rank grew."""
        if tag is None:
            tag = self._n_inserted
        self._n_inserted += 1
        residual, combo = self.reduce(vec)
        if not residual:
            return False
        pivot = min(residual)
        inv = Fraction(1, 1) / Fraction(residual[pivot])
        row = vec_scale(residual, inv)
        rcombo = vec_scale(combo, -inv)
        rcombo[tag] = normalize_rational(rcombo.get(tag, 0) + inv)
        # clear the new pivot from existing rows to stay fully reduced
        for i, existing in enumerate(self.rows):
            c = existing.get(pivot)
            if c:
                vec_add_scaled(existing, row, -c)
                vec_add_scaled(self.combos[i], rcombo, -c)
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < pivot:
            pos += 1
        self.rows.insert(pos, row)
        self.pivots.insert(pos, pivot)
        self.combos.insert(pos, rcombo)
        return True

    def contains(self, vec: Vec) -> bool:
        residual, _ = self.reduce(vec)
        return not residual

    def express(self, vec: Vec) -> Optional[Vec]:
        """Coefficients over inserted generator tags, or None if outside."""
        residual, combo = self.reduce(vec)
        if residual:
            return None
        return combo


def span_equal(a: SpanSolver, b: SpanSolver) -> bool:
    return a.pivots == b.pivots and a.rows == b.rows


def null_space(equations: Iterable[Vec], unknowns: Sequence[Hashable]) -> List[Vec]:
    """Exact kernel basis of the homogeneous system, canonical RREF form.

    Each equation maps unknown keys to coefficients; the returned vectors
    set one free unknown to 1 (free unknowns in ascending key order).
    """
    order = {u: i for i, u in enumerate(unknowns)}
    rows: List[List] = []
    for eq in equations:
        if not eq:
            continue
        dense = [Fraction(0)] * len(unknowns)
        for k, c in eq.items():
            dense[order[k]] += Fraction(c)
        if any(dense):
            rows.append(dense)
    # forward elimination to RREF
    pivots: List[int] = []
    r = 0
    for col in range(len(unknowns)):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [c * inv for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    rows = rows[:r]
    free = [c for c in range(len(unknowns)) if c not in pivots]
    basis: List[Vec] = []
    for fcol in free:
        vec = [Fraction(0)] * len(unknowns)
        vec[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            vec[pcol] = -rows[i][fcol]
        basis.append(
            {unknowns[c]: normalize_rational(vec[c]) for c in range(len(unknowns)) if vec[c]}
        )
    return basis
