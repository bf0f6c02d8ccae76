"""The basis kernels and ad operators derived from the product rows,
against the hand-written oracles, and the checkers under broken rows."""

from itertools import product

import pytest

import oracles
from trilie import OMEGA, Element, FKBracket, L, M, parse_beta, window_basis
from trilie.brackets import closed_triple_fn, fk_triple_fn, integral_spec, omega_triple
from trilie.cli import main
from trilie.operators import op_from_ad
from trilie.report import Window

WEIGHTS = ("const:1", "const:1/2", "support:-1=1,2=-1/3", "poly:1/2*t^2-1")
KS = (-2, 0, 1, 3)


def _typed(res):
    """A kernel value with the type of each of its parts."""
    return None if res is None else tuple((part, type(part)) for part in res)


def _triples(window):
    basis = [(bv.family, bv.index) for bv in window_basis(window)]
    return list(product(basis, repeat=3))


def test_omega_kernel_matches_the_oracle():
    for args in _triples(Window(-5, 5)):
        assert _typed(omega_triple(*args)) == _typed(oracles.omega_triple(*args)), args
        assert _typed(closed_triple_fn(OMEGA)(*args)) == _typed(oracles.omega_triple(*args)), args


@pytest.mark.parametrize("weight", WEIGHTS)
def test_fk_kernel_matches_the_oracle(weight):
    f = parse_beta(weight)
    triples = _triples(Window(-5, 5))
    for k in KS:
        derived, cached = fk_triple_fn(k, f), closed_triple_fn(FKBracket(k, f))
        oracle = oracles.fk_triple_fn(k, f)
        for args in triples:
            want = _typed(oracle(*args))
            assert _typed(derived(*args)) == want == _typed(cached(*args)), (k, args)


@pytest.mark.parametrize("weight", (*WEIGHTS, "const:-3/4", "poly:1/6*t^3-1/4*t+2/3"))
def test_scaled_fk_kernel_is_the_bound_times_the_kernel(weight):
    f = parse_beta(weight)
    triples = _triples(Window(-5, 5))
    for k in KS:
        spec = FKBracket(k, f)
        unit, scaled = integral_spec(spec)
        assert unit == f.denominator()
        if unit == 1:
            assert scaled == spec
        kernel, integral = closed_triple_fn(spec), closed_triple_fn(scaled)
        for args in triples:
            want, got = kernel(*args), integral(*args)
            if want is None:
                assert got is None, (k, args)
            else:
                assert type(got[0]) is int and got == (want[0] * unit, *want[1:]), (k, args)


def test_omega_is_its_own_integral_spec():
    assert integral_spec(OMEGA) == (1, OMEGA)


ELEMENT_PAIRS = (
    (L(1, 2) - M(0), L(-2) + M(2)),
    (L(0) + M(1), L(2)),
    (M(-1, 3) + M(2), M(3) - L(1)),
    (L(1) + L(-1) + M(0), M(1) + M(-1) + L(0)),
    (L(2) + M(2), L(2) - M(2)),
)


def _pairs(window):
    basis = [Element({bv: 1}) for bv in window_basis(window)]
    return [*product(basis, repeat=2), *ELEMENT_PAIRS]


def _same_operator(a, b):
    """Structural equality, channel order included."""
    return list(a.terms.items()) == list(b.terms.items())


def test_omega_ad_operators_match_the_oracle():
    for u, v in _pairs(Window(-3, 3)):
        assert _same_operator(op_from_ad(OMEGA, u, v), oracles.op_from_ad_omega(u, v)), (u, v)


@pytest.mark.parametrize("weight", WEIGHTS)
def test_fk_ad_operators_match_the_oracle(weight):
    f = parse_beta(weight)
    pairs = _pairs(Window(-3, 3))
    for k in KS:
        spec = FKBracket(k, f)
        for u, v in pairs:
            assert _same_operator(op_from_ad(spec, u, v), oracles.op_from_ad_fk(k, f, u, v)), (k, u, v)


# -- the checkers under a broken row -------------------------------------------


def _exit(argv, capsys):
    code = main([*argv, "--window", "-2..2"])
    capsys.readouterr()
    return code


def test_checkers_fail_under_a_negated_omega_lmm_row(patch_row, capsys):
    # [L_r, M_s, M_t] = (s - t) M_{s+t-r}
    patch_row("omega", 1, coef=(0, 1, -1))
    assert op_from_ad(OMEGA, L(0), M(1)).apply(M(2)) == M(3, -1)
    for argv in (
        ["verify", "constructor-agreement"],
        ["verify", "nambu-realization", "--bracket", "omega"],
        ["table", "wxy"],
        ["verify", "table-5-1"],
        ["verify", "fundamental-identity", "--bracket", "omega"],
    ):
        assert _exit(argv, capsys) == 1, argv
    # the expansion keeps a row antisymmetric in its like slots totally antisymmetric
    assert _exit(["verify", "anticommutativity", "--bracket", "omega"], capsys) == 0


def test_checkers_fail_under_a_shifted_fk_coefficient(patch_row, capsys):
    # [L_r, L_s, M_t] = beta_t (2r - s) L_{r+s+k}
    patch_row("fk", 0, coef=(2, -1, 0))
    for argv in (
        ["verify", "constructor-agreement"],
        ["verify", "nambu-realization", "--bracket", "fk"],
    ):
        assert _exit(argv, capsys) == 1, argv

