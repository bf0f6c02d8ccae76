import os
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from trilie import OMEGA, BasisVector, Element, L, M
from trilie import brackets
from trilie.brackets import closed_triple_fn, expand_rows
from trilie.nambu import SymFunction
from trilie.operators import Operator, gen_q, op_from_ad
from trilie.polys import Poly

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

RATIONALS = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=5)),
)


@st.composite
def elements(draw, max_terms=4, index_bound=5):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        fam = draw(st.sampled_from(("L", "M")))
        idx = draw(st.integers(min_value=-index_bound, max_value=index_bound))
        terms[BasisVector(fam, idx)] = draw(RATIONALS)
    return Element(terms)


def nonzero_elements(max_terms=4, index_bound=5):
    """Elements of 1..max_terms terms, each with a nonzero coefficient."""
    return st.dictionaries(
        st.builds(BasisVector, st.sampled_from(("L", "M")), st.integers(-index_bound, index_bound)),
        RATIONALS.filter(bool),
        min_size=1,
        max_size=max_terms,
    ).map(Element)


@st.composite
def polys(draw, max_degree=6, max_terms=4):
    coeffs = draw(st.dictionaries(st.integers(0, max_degree), RATIONALS, max_size=max_terms))
    return Poly(tuple(coeffs.get(d, 0) for d in range(max(coeffs, default=-1) + 1)))


@st.composite
def sym_functions(draw, max_terms=3):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        key = (
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=-3, max_value=3)),
        )
        terms[key] = draw(RATIONALS)
    return SymFunction(terms)


@pytest.fixture
def element_strategy():
    return elements()


@pytest.fixture
def sym_strategy():
    return sym_functions()


def sign_flipped_q(r):
    """A broken gen_q for mutation tests: the sign between its two ad terms
    is flipped, so q_r becomes (2/r) p_r for r != 0."""
    if r == 0:
        return gen_q(0)
    return (op_from_ad(OMEGA, L(0), M(-r)) + op_from_ad(OMEGA, L(r), M(0))).scale(Fraction(1, r))


def doubled_x_channel(ad_x):
    """ad_x with the channel landing on index 1 scaled by 2."""

    def broken(spec, r, s):
        op = ad_x(spec, r, s)
        return Operator({key: 2 * c if key[3] == 1 else c for key, c in op.terms.items()})

    return broken


# the product-row mutations the tests install through patch_row: (bracket, row, fields)
ROW_MUTATIONS = {
    "intact": None,
    "omega llm coef (-2, 1, 0)": ("omega", 0, {"coef": (-2, 1, 0)}),
    "omega llm index (1, 1, 0)": ("omega", 0, {"index": (1, 1, 0)}),
    "omega lmm coef (0, 1, -1)": ("omega", 1, {"coef": (0, 1, -1)}),
    "omega lmm coef (1, -1, 1)": ("omega", 1, {"coef": (1, -1, 1)}),
    "omega lmm coef zero": ("omega", 1, {"coef": (0, 0, 0)}),
    "omega lmm index (-1, 1, 0)": ("omega", 1, {"index": (-1, 1, 0)}),
    "omega lmm on L": ("omega", 1, {"family": "L"}),
    "fk llm coef (2, -1, 0)": ("fk", 0, {"coef": (2, -1, 0)}),
    "fk llm index (1, 1, 1)": ("fk", 0, {"index": (1, 1, 1)}),
    "fk llm on M": ("fk", 0, {"family": "M"}),
}


def _install_row(mp, bracket, i, **fields):
    """Replace fields of row i of a bracket through ``mp`` and install its expanded rules."""
    rows = list(brackets.PRODUCT_ROWS[bracket])
    rows[i] = rows[i]._replace(**fields)
    mp.setitem(brackets.PRODUCT_ROWS, bracket, tuple(rows))
    mp.setitem(brackets.RULES, bracket, expand_rows(rows))
    closed_triple_fn.cache_clear()


@contextmanager
def mutated_rows(mutation):
    """Install ``ROW_MUTATIONS[mutation]`` for the duration of a with block."""
    closed_triple_fn.cache_clear()
    with pytest.MonkeyPatch.context() as m:
        if ROW_MUTATIONS[mutation] is not None:
            bracket, i, fields = ROW_MUTATIONS[mutation]
            _install_row(m, bracket, i, **fields)
        try:
            yield
        finally:
            closed_triple_fn.cache_clear()


@pytest.fixture
def patch_row(monkeypatch):
    """patch_row(bracket, i, **fields) replaces fields of row i of a bracket
    and installs the expanded rules for the rest of the test."""
    closed_triple_fn.cache_clear()
    yield lambda bracket, i, **fields: _install_row(monkeypatch, bracket, i, **fields)
    closed_triple_fn.cache_clear()
