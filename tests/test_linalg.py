from fractions import Fraction

import sympy
from hypothesis import given, strategies as st

import oracles
from conftest import RATIONALS
from trilie import linalg
from trilie.linalg import SpanSolver, _primitive_row, null_space, span_equal
from trilie.polys import normalize_rational


def test_span_solver_rank_and_membership():
    s = SpanSolver()
    assert s.add({"a": 1, "b": 2})
    assert s.add({"b": 1})
    assert not s.add({"a": 2, "b": 7})  # dependent
    assert s.rank == 2
    assert s.contains({"a": 5})
    assert not s.contains({"c": 1})


def test_rref_is_canonical():
    a = SpanSolver()
    a.add({"x": 2, "y": 4})
    a.add({"y": 3, "z": 3})
    b = SpanSolver()
    b.add({"x": 1, "y": 2})
    b.add({"x": 1, "y": 3, "z": 1})
    assert span_equal(a, b)


def test_rows_fully_reduced():
    s = SpanSolver()
    s.add({"x": 1, "y": 1})
    s.add({"y": 1})
    # pivot column of the second row must be cleared from the first
    assert s.rows == [{"x": 1}, {"y": 1}]
    assert s.pivots == ["x", "y"]


def test_null_space():
    # x + y = 0, y + z = 0 -> kernel spanned by (1, -1, 1)
    eqs = [{"x": 1, "y": 1}, {"y": 1, "z": 1}]
    basis = null_space(eqs, ["x", "y", "z"])
    assert len(basis) == 1
    vec = basis[0]
    assert vec["x"] == vec["z"] and vec["y"] == -vec["x"]


def test_null_space_full_rank():
    eqs = [{"x": 1}, {"y": 2}]
    assert null_space(eqs, ["x", "y"]) == []


def test_null_space_no_equations():
    basis = null_space([], ["x", "y"])
    assert basis == [{"x": 1}, {"y": 1}]


def test_adding_and_comparing_spans_builds_no_certificates():
    # one mode: no certificate state, and rows hold only the added vectors' keys
    for name in ("express", "_certificates", "_combos", "_grown", "_n_inserted"):
        assert not hasattr(SpanSolver, name)
    assert null_space([{"x": 1, "y": 1}, {"y": 1, "z": 1}], ["x", "y", "z"]) == [
        {"x": 1, "y": -1, "z": 1}
    ]
    a, b = SpanSolver(), SpanSolver()
    a.add({"x": 2, "y": 4})
    b.add({"x": 1, "y": 2})
    assert span_equal(a, b) and a.contains({"x": 3, "y": 6})
    assert a.rows == [{"x": 1, "y": 2}] and vars(a).keys() == {"rows", "pivots", "_row_at"}


VECTORS = st.dictionaries(st.sampled_from("abcdef"), RATIONALS.filter(bool), max_size=4)


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("add"), VECTORS),
            st.tuples(st.just("contains"), VECTORS),
            st.tuples(st.just("reduce"), VECTORS),
        ),
        max_size=14,
    )
)
def test_span_solver_matches_the_eager_oracle(ops):
    new, old = SpanSolver(), oracles.EagerSpanSolver()
    for op, vec in ops:
        if op == "add":
            assert new.add(vec) == old.add(vec)
        elif op == "contains":
            assert new.contains(vec) == old.contains(vec)
        else:
            residual = new.reduce(vec)
            assert list(residual.items()) == list(old.reduce(vec)[0].items())
            assert residual is not vec
        assert (new.rows, new.pivots, new.rank) == (old.rows, old.pivots, old.rank)


# -- null_space against the Fraction routine it replaced, and against sympy --


def _fraction_null_space(equations, unknowns):
    """Dense Gauss-Jordan over Fractions: the kernel routine before the
    integer elimination, kept as an oracle."""
    order = {u: i for i, u in enumerate(unknowns)}
    rows = []
    for eq in equations:
        if not eq:
            continue
        dense = [Fraction(0)] * len(unknowns)
        for k, c in eq.items():
            dense[order[k]] += Fraction(c)
        if any(dense):
            rows.append(dense)
    pivots = []
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
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * len(unknowns)
        vec[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            vec[pcol] = -rows[i][fcol]
        basis.append(
            {unknowns[c]: normalize_rational(vec[c]) for c in range(len(unknowns)) if vec[c]}
        )
    return basis


def _sympy_null_space(equations, unknowns):
    order = {u: i for i, u in enumerate(unknowns)}
    rows = []
    for eq in equations:
        row = [sympy.Integer(0)] * len(unknowns)
        for k, c in eq.items():
            row[order[k]] += sympy.Rational(c.numerator, c.denominator)
        rows.append(row)
    if not rows:
        rows = [[sympy.Integer(0)] * len(unknowns)]
    basis = []
    for col in sympy.Matrix(rows).nullspace():
        basis.append(
            {
                unknowns[i]: normalize_rational(Fraction(int(x.p), int(x.q)))
                for i, x in enumerate(col)
                if x != 0
            }
        )
    return basis


def _typed(basis):
    """Kernel vectors with key order and value types made comparable."""
    return [[(k, type(v), v) for k, v in vec.items()] for vec in basis]


@st.composite
def linear_systems(draw):
    """Up to six unknowns; rational rows, some repeated, scaled or zero."""
    n = draw(st.integers(min_value=1, max_value=6))
    unknowns = [f"x{i}" for i in range(n)]
    row = st.dictionaries(st.sampled_from(unknowns), RATIONALS, max_size=n)
    equations = draw(st.lists(row, max_size=6))
    for eq in draw(st.lists(st.sampled_from(equations), max_size=4)) if equations else []:
        factor = draw(RATIONALS.filter(bool))
        equations.append({k: c * factor for k, c in eq.items()})
    return draw(st.permutations(equations)), unknowns


@given(linear_systems())
def test_null_space_matches_fraction_and_sympy_oracles(system):
    equations, unknowns = system
    got = null_space(equations, unknowns)
    assert _typed(got) == _typed(_fraction_null_space(equations, unknowns))
    assert _typed(got) == _typed(_sympy_null_space(equations, unknowns))


def test_null_space_edge_systems():
    xyz = ["x", "y", "z"]
    cases = [
        ([], []),
        ([{}], ["x"]),
        ([{"x": 0, "y": 0}], ["x", "y"]),
        # duplicate, collinear and rational rows collapse to one equation
        ([{"x": 1, "y": -2}, {"x": 1, "y": -2}, {"x": Fraction(-1, 3), "y": Fraction(2, 3)}], xyz),
        ([{"x": Fraction(1, 2), "z": Fraction(-1, 3)}, {"y": 4, "z": 6}], xyz),
    ]
    for equations, unknowns in cases:
        got = null_space(equations, unknowns)
        assert _typed(got) == _typed(_fraction_null_space(equations, unknowns))
    assert null_space([], []) == []
    assert null_space([{"x": 0}], ["x"]) == [{"x": 1}]
    assert null_space(cases[3][0], xyz) == [{"x": 2, "y": 1}, {"z": 1}]
    assert null_space(cases[4][0], xyz) == [{"x": Fraction(2, 3), "y": Fraction(-3, 2), "z": 1}]


def test_equations_become_primitive_integer_rows():
    order = {"x": 0, "y": 1, "z": 2}
    # rational, negated and scaled copies of one equation give one row
    for eq in (
        {"y": -4, "x": 2},
        {"x": Fraction(-1, 3), "y": Fraction(2, 3)},
        {"x": 7, "y": -14, "z": 0},
    ):
        assert _primitive_row(eq, order) == ((0, 1), (1, -2))
    assert _primitive_row({"z": Fraction(-3, 4), "y": Fraction(1, 6)}, order) == ((1, 2), (2, -9))
    assert _primitive_row({"x": 0}, order) == ()


def test_null_space_scales_each_distinct_equation_once(monkeypatch):
    calls = []

    def counting(eq, order):
        calls.append(eq)
        return _primitive_row(eq, order)

    unknowns = ["x", "y", "z"]
    # repeats (one with Fraction values), a scaled copy and a zero equation
    eqs = [{"x": 1, "y": -1}, {"y": 2, "z": 1}, {"x": 1, "y": -1}, {"x": Fraction(1), "y": Fraction(-1)}, {"x": 2, "y": -2}, {}]
    expected = null_space(eqs[:2], unknowns)
    monkeypatch.setattr(linalg, "_primitive_row", counting)
    assert null_space(eqs, unknowns) == expected
    assert calls == [{"x": 1, "y": -1}, {"y": 2, "z": 1}, {"x": 2, "y": -2}]
