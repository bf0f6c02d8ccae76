import os
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from trilie import OMEGA, BasisVector, Element, L, M
from trilie import brackets
from trilie.brackets import closed_triple_fn, expand_rows
from trilie.nambu import SymFunction
from trilie.operators import gen_q, op_from_ad

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


@pytest.fixture
def patch_row(monkeypatch):
    """patch_row(bracket, i, **fields) replaces fields of row i of a bracket
    and installs the expanded rules for the rest of the test."""
    closed_triple_fn.cache_clear()

    def patch(bracket, i, **fields):
        rows = list(brackets.PRODUCT_ROWS[bracket])
        rows[i] = rows[i]._replace(**fields)
        monkeypatch.setitem(brackets.PRODUCT_ROWS, bracket, tuple(rows))
        monkeypatch.setitem(brackets.RULES, bracket, expand_rows(rows))
        closed_triple_fn.cache_clear()

    yield patch
    closed_triple_fn.cache_clear()
