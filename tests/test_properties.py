"""Property-based checks of the algebraic laws on random elements."""

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import RATIONALS, elements, nonzero_elements, polys, sym_functions
from fractions import Fraction

from trilie import (
    OMEGA,
    ConstantFunctional,
    Element,
    FKBracket,
    L,
    M,
    PolynomialFunctional,
    d_k,
    delta,
    omega,
    op_from_ad,
    parse_element,
    tri_bracket,
    window_basis,
)
from trilie.brackets import FUNDAMENTAL_IDENTITY, identity_residual
from trilie.nambu import FKRealization, OmegaRealization, nambu_bracket, partial, realize
from trilie.linalg import SpanSolver
from trilie.operators import Operator, OperatorFamily, gen_p, gen_q, gen_x, gen_z
from trilie.parsing import parse_poly
from trilie.polys import Poly
from trilie.report import Window

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


@given(polys())
def test_poly_parse_print_roundtrip(p):
    assert parse_poly(str(p)) == p


@given(SPECS, nonzero_elements(max_terms=2), nonzero_elements(max_terms=2), nonzero_elements(max_terms=2))
def test_bracket_antisymmetry_random(spec, u, v, w):
    base = tri_bracket(spec, u, v, w)
    assert tri_bracket(spec, v, u, w) == -base
    assert tri_bracket(spec, u, w, v) == -base
    assert tri_bracket(spec, w, v, u) == -base
    assert tri_bracket(spec, u, u, w).is_zero()


@given(
    SPECS,
    nonzero_elements(max_terms=2, index_bound=3),
    nonzero_elements(max_terms=2, index_bound=3),
    nonzero_elements(max_terms=2, index_bound=3),
    nonzero_elements(max_terms=2, index_bound=3),
    nonzero_elements(max_terms=2, index_bound=3),
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


# -- the shared sparse base: zero-free results equal to plain-dict sums -------

PROBE_ELEMENTS = st.tuples(elements(max_terms=2, index_bound=3), elements(max_terms=2, index_bound=3))
REALIZATIONS = st.sampled_from([OmegaRealization(), FKRealization(1, ONE), FKRealization(0, ONE)])
CHANNELS = st.sampled_from([("L", "L", 1, 0), ("L", "L", 1, 2), ("M", "L", 0, 1), ("L", "M", -1, 0)])
ATOMS = st.sampled_from([("p", 0, 0), ("b", 1, 0), ("b", -1, 2), ("b", 0, 1)])
FUNCTIONALS = st.sampled_from(
    [None, ONE, ConstantFunctional(Fraction(-2, 3)), PolynomialFunctional(Poly((1, 1)))]
)
POLYS = st.lists(RATIONALS, max_size=3).map(lambda cs: Poly(tuple(cs)))


SAMPLE_TS = (0, 1, -2, Fraction(1, 2), Fraction(-5, 3))
AFFINE_MAPS = ((1, 0), (-1, 0), (1, 2), (-1, -3), (0, 2), (2, -1), (-3, 1))


def typed(x):
    """A rational, or a coefficient tuple, with the type of each part."""
    return tuple((c, type(c)) for c in x) if isinstance(x, tuple) else (x, type(x))


@given(POLYS, POLYS, RATIONALS)
def test_sparse_poly_matches_the_dense_oracle(p, q, c):
    dp, dq = oracles.DensePoly(p.coeffs), oracles.DensePoly(q.coeffs)
    pairs = [(p + q, dp + dq), (p - q, dp - dq), (-p, -dp), (p.scale(c), dp.scale(c)),
             (p * q, dp * dq), (p * c, dp * c), (c * p, c * dp)]
    pairs += [(p.compose_affine(a, b), dp.compose_affine(a, b)) for a, b in AFFINE_MAPS]
    for got, want in pairs:
        assert type(got) is Poly
        assert typed(got.coeffs) == typed(want.coeffs)
        assert got.degree == len(want.coeffs) - 1
        assert str(got) == str(want)
        assert all(got.terms.values())
        assert Poly(got.coeffs) == got
    for t in SAMPLE_TS:
        assert typed(p(t)) == typed(dp(t))
    # equal polynomials built two ways, trailing zeros included, hash equal
    for same in ((p + q) - q, Poly(p.coeffs + (0, Fraction(0)))):
        assert same == p and hash(same) == hash(p)


@st.composite
def channel_operators(draw, atoms=ATOMS):
    """Random flat terms: a channel, an atom and a degree up to 2."""
    keys = st.tuples(CHANNELS, atoms, st.integers(min_value=0, max_value=2))
    terms = draw(st.dictionaries(keys.map(lambda k: k[0] + k[1] + (k[2],)), RATIONALS, max_size=8))
    return Operator(terms)


def assert_zero_free(x):
    assert all(x.terms.values())


def dict_sum(*weighted):
    """Plain-dict reference: sum of c * terms over (c, terms) pairs, zeros dropped."""
    out = {}
    for c, terms in weighted:
        for key, value in terms.items():
            out[key] = out.get(key, 0) + c * value
    return {key: value for key, value in out.items() if value}


def channel_values(op, t):
    """Each channel's coefficient at index t under beta = 1, zeros dropped."""
    out = {}
    for key, c in op.terms.items():
        beta = ONE.beta(key[5] * t + key[6]) if key[4] == "b" else 1
        out[key[:4]] = out.get(key[:4], 0) + c * t ** key[7] * beta
    return {channel: value for channel, value in out.items() if value}


def check_linear(a, b, c, terms=lambda x: x.terms):
    for result, want in (
        (a + b, dict_sum((1, terms(a)), (1, terms(b)))),
        (a - b, dict_sum((1, terms(a)), (-1, terms(b)))),
        (-a, dict_sum((-1, terms(a)))),
        (a.scale(c), dict_sum((c, terms(a)))),
        (a + (-a), {}),
    ):
        assert_zero_free(result)
        assert terms(result) == want


@given(elements(), elements(), RATIONALS)
def test_element_base_ops(a, b, c):
    check_linear(a, b, c)
    ref = {}
    for (f1, i1), c1 in a.terms.items():
        for (f2, i2), c2 in b.terms.items():
            if f1 == f2:
                ref[(f1, i1 + i2)] = ref.get((f1, i1 + i2), 0) + c1 * c2
    assert_zero_free(a * b)
    assert (a * b).terms == {k: v for k, v in ref.items() if v}


@given(REALIZATIONS, elements(max_terms=3), elements(max_terms=3), RATIONALS)
def test_sym_function_base_ops(rmap, u, v, c):
    f, g = realize(rmap, u), realize(rmap, v)
    check_linear(f, g, c)
    ref = {}
    for (a1, b1, r1), c1 in f.terms.items():
        for (a2, b2, r2), c2 in g.terms.items():
            key = (a1 + a2, b1 + b2, r1 + r2)
            ref[key] = ref.get(key, 0) + c1 * c2
    assert_zero_free(f * g)
    assert (f * g).terms == {k: v for k, v in ref.items() if v}


@given(channel_operators(), channel_operators(), channel_operators(atoms=st.just(("p", 0, 0))), RATIONALS)
def test_channel_operator_base_ops(a, b, pure, c):
    check_linear(a, b, c)
    # a after a plain operator (two beta atoms are not representable): each
    # term of a is read at the index eps1*t + m1 that a term of pure lands on
    ref = {}
    for (fin1, fout1, eps1, m1, _, _, _, d1), c1 in pure.terms.items():
        for (fin2, fout2, eps2, m2, kind, bs, bo, d2), c2 in a.terms.items():
            if fin2 != fout1:
                continue
            atom = (kind, bs * eps1, bs * m1 + bo)
            p = Poly((0,) * d1 + (c1,)) * Poly((0,) * d2 + (c2,)).compose_affine(eps1, m1)
            for d, x in enumerate(p.coeffs):
                key = (fin1, fout2, eps2 * eps1, eps2 * m1 + m2, *atom, d)
                ref[key] = ref.get(key, 0) + x
    assert_zero_free(a.compose(pure))
    assert a.compose(pure).terms == {k: v for k, v in ref.items() if v}


# -- the integer compose kernel against the rational oracle ------------------

def degree_one(op):
    return Operator({key: c for key, c in op.terms.items() if key[7] <= 1})


PURE_ATOM = st.just(("p", 0, 0))


def products(fn, a, b):
    """fn(a, b), or ArithmeticError when it raises one."""
    try:
        return fn(a, b)
    except ArithmeticError:
        return ArithmeticError


def assert_products_match_oracle(a, b):
    """compose and commutator both ways: the oracle's terms, value types
    included, with no zero values and no integral Fractions, or the
    oracle's ArithmeticError."""
    for got_fn, want_fn in ((Operator.compose, oracles.compose), (Operator.commutator, oracles.commutator)):
        for x, y in ((a, b), (b, a)):
            got, want = products(got_fn, x, y), products(want_fn, x, y)
            if want is ArithmeticError:
                assert got is ArithmeticError
                continue
            assert type(got) is Operator
            assert {k: typed(c) for k, c in got.terms.items()} == {k: typed(c) for k, c in want.terms.items()}
            assert all(got.terms.values())
            assert not any(type(c) is Fraction and c.denominator == 1 for c in got.terms.values())


@given(channel_operators(), channel_operators())
def test_operator_products_match_the_oracle(a, b):
    # beta atoms on both sides, and coefficients over mixed denominators
    assert_products_match_oracle(a, b)


@given(channel_operators(atoms=PURE_ATOM), channel_operators(atoms=PURE_ATOM), channel_operators(), channel_operators())
def test_operator_products_of_composed_operands_match_the_oracle(a1, a2, a3, b):
    # operands of degree up to 3, built by composing degree-1 operators
    deep = oracles.compose(oracles.compose(degree_one(a1), degree_one(a2)), degree_one(a3))
    assert_products_match_oracle(deep, b)
    assert_products_match_oracle(deep, deep)


@given(channel_operators(), channel_operators(), channel_operators(atoms=PURE_ATOM), RATIONALS)
def test_operator_products_of_derived_operands_match_the_oracle(a, b, pure, c):
    # the operands serve as operands first, then operators derived from
    # them serve many products each, so a form carried over from another
    # operator would show
    operands = [a, b, pure]
    for x in operands:
        for y in operands:
            assert_products_match_oracle(x, y)
    operands += [a.scale(c), a + b, a - b, b - a, -b, a.commutator(pure), pure.commutator(pure)]
    for x in operands:
        for y in operands:
            assert_products_match_oracle(x, y)


def test_two_beta_atoms_are_not_composable():
    a = Operator({("L", "L", 1, 0, "b", 1, 0, 0): 1})
    b = Operator({("L", "L", -1, 2, "b", -1, 1, 1): Fraction(1, 2)})
    for fn in (Operator.compose, Operator.commutator, oracles.compose, oracles.commutator):
        with pytest.raises(ArithmeticError, match="two beta-weighted atoms"):
            fn(a, b)
    # a beta atom on one side only composes
    assert a.compose(Operator({("L", "L", 1, 3, "p", 0, 0, 1): 2})).terms == {("L", "L", 1, 3, "b", 1, 3, 1): 2}


@given(SPECS, PROBE_ELEMENTS, PROBE_ELEMENTS, RATIONALS)
def test_operator_base_ops(spec, uv, wz, c):
    a, b = op_from_ad(spec, *uv), op_from_ad(spec, *wz)
    check_linear(a, b, c)
    # a after b, channel by channel at sample indices: the coefficients are
    # polynomials of degree <= 2 in t, so seven indices determine them
    ab = a.compose(b)
    assert_zero_free(ab)
    for t in range(-3, 4):
        ref = {}
        for (fin1, fout1, eps1, m1), v1 in channel_values(b, t).items():
            for (fin2, fout2, eps2, m2), v2 in channel_values(a, eps1 * t + m1).items():
                if fin2 == fout1:
                    key = (fin1, fout2, eps2 * eps1, eps2 * m1 + m2)
                    ref[key] = ref.get(key, 0) + v1 * v2
        assert channel_values(ab, t) == {k: v for k, v in ref.items() if v}


@given(channel_operators(), FUNCTIONALS.filter(lambda f: f is not None))
def test_substitution_keeps_the_linear_map(op, f):
    pure = op.substitute(f)
    assert not pure.has_beta()
    for bv in window_basis(Window(-3, 3)):
        u = Element({bv: 1})
        assert pure.apply(u) == op.apply(u, f)


# -- a prebuilt OperatorFamily against a one-shot solver ----------------------

def one_shot_decompose(target, labelled, functional):
    """A fresh solver per target: the decomposition before families were prebuilt."""
    if functional is not None:
        target = target.substitute(functional)
        labelled = [(lab, op.substitute(functional)) for lab, op in labelled]
    solver = SpanSolver()
    for lab, op in labelled:
        solver.add(op.terms, tag=lab)
    combo = solver.express(target.terms)
    return None if combo is None else {lab: c for lab, c in combo.items() if c}


@given(
    st.lists(channel_operators(), min_size=1, max_size=4),
    st.lists(
        st.tuples(
            st.lists(RATIONALS, min_size=4, max_size=4),
            st.one_of(st.none(), channel_operators()),
        ),
        min_size=1,
        max_size=3,
    ),
    FUNCTIONALS,
)
def test_operator_family_matches_one_shot_solver(ops, targets, functional):
    labelled = [(("op", i), op) for i, op in enumerate(ops)]
    family = OperatorFamily(labelled, functional)
    for coeffs, extra in targets:
        target = Operator.zero() if extra is None else extra
        for c, op in zip(coeffs, ops):
            target = target + op.scale(c)
        got, want = family.decompose(target), one_shot_decompose(target, labelled, functional)
        assert got == want
        if want is not None:
            assert list(got.items()) == list(want.items())
            assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
