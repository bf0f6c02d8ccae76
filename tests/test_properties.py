"""Property-based checks of the algebraic laws on random elements."""

from hypothesis import given, strategies as st

from conftest import RATIONALS, elements, sym_functions
from trilie import (
    OMEGA,
    ConstantFunctional,
    Element,
    FKBracket,
    L,
    M,
    d_k,
    delta,
    omega,
    op_from_ad,
    parse_element,
    tri_bracket,
)
from trilie.brackets import FUNDAMENTAL_IDENTITY, identity_residual
from trilie.nambu import nambu_bracket, partial
from trilie.operators import gen_p, gen_q, gen_x, gen_z

ONE = ConstantFunctional(1)
SPECS = st.sampled_from([OMEGA, FKBracket(1, ONE), FKBracket(0, ONE)])


@given(elements(), elements())
def test_product_commutes(a, b):
    assert a * b == b * a


@given(elements(max_terms=3), elements(max_terms=3), elements(max_terms=3))
def test_product_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(elements(), elements(), RATIONALS)
def test_linearity_of_structure_maps(a, b, c):
    for f in (delta, omega, lambda u: d_k(2, u)):
        assert f(a + b.scale(c)) == f(a) + f(b).scale(c)


@given(elements(), elements())
def test_derivations_satisfy_leibniz(a, b):
    assert d_k(1, a * b) == d_k(1, a) * b + a * d_k(1, b)
    assert delta(a * b) == delta(a) * b + a * delta(b)


@given(elements())
def test_omega_involution(a):
    assert omega(omega(a)) == a


@given(elements(), elements())
def test_omega_multiplicative(a, b):
    assert omega(a * b) == omega(a) * omega(b)


@given(elements())
def test_canonical_form_idempotent(a):
    assert Element(dict(a.terms)) == a
    assert all(c != 0 for c in a.terms.values())


@given(elements())
def test_parse_print_roundtrip(a):
    assert parse_element(str(a)) == a


@given(SPECS, elements(max_terms=2), elements(max_terms=2), elements(max_terms=2))
def test_bracket_antisymmetry_random(spec, u, v, w):
    base = tri_bracket(spec, u, v, w)
    assert tri_bracket(spec, v, u, w) == -base
    assert tri_bracket(spec, u, w, v) == -base
    assert tri_bracket(spec, w, v, u) == -base
    assert tri_bracket(spec, u, u, w).is_zero()


@given(
    SPECS,
    elements(max_terms=2, index_bound=3),
    elements(max_terms=2, index_bound=3),
    elements(max_terms=2, index_bound=3),
    elements(max_terms=2, index_bound=3),
    elements(max_terms=2, index_bound=3),
)
def test_fundamental_identity_random(spec, u1, u2, u3, v2, v3):
    assert identity_residual(spec, FUNDAMENTAL_IDENTITY, (u1, u2, u3, v2, v3)).is_zero()


@given(SPECS, elements(max_terms=2, index_bound=3), elements(max_terms=2, index_bound=3))
def test_ad_operator_soundness(spec, u, v):
    op = op_from_ad(spec, u, v)
    for bv in (L(0), L(2), M(-1), M(3)):
        assert op.apply(bv, ONE) == tri_bracket(spec, u, v, bv)


@given(sym_functions(), sym_functions())
def test_sym_product_commutes(f, g):
    assert f * g == g * f


@given(sym_functions(), sym_functions())
def test_partial_leibniz(f, g):
    for var in ("x", "y", "z"):
        assert partial(var, f * g) == partial(var, f) * g + f * partial(var, g)


@given(sym_functions(max_terms=2), sym_functions(max_terms=2), sym_functions(max_terms=2), sym_functions(max_terms=2))
def test_nambu_leibniz(g1, g2, h, k):
    lhs = nambu_bracket(g1 * g2, h, k)
    rhs = g1 * nambu_bracket(g2, h, k) + g2 * nambu_bracket(g1, h, k)
    assert lhs == rhs


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
def test_omega_generator_commutators_close_with_degree_bound(r, s):
    gens = (gen_p(r), gen_q(r), gen_x(r), gen_z(r))
    others = (gen_p(s), gen_q(s), gen_x(s), gen_z(s))
    for a in gens:
        for b in others:
            comm = a.commutator(b)
            assert comm.max_poly_degree() <= 1
