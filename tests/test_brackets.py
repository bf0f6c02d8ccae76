from collections import Counter
from fractions import Fraction
from itertools import islice, product

import pytest

from trilie import (
    DETERMINANT,
    OMEGA,
    BracketPreconditionError,
    ConstantFunctional,
    DkInduced,
    Element,
    FKBracket,
    FiniteSupportFunctional,
    FixedThirdL,
    FixedThirdM,
    FromFunctionalBracket,
    L,
    M,
    PolynomialFunctional,
    certify_from_functional,
    lie_bracket,
    tri_bracket,
)
from trilie import brackets, window_basis
from trilie.analysis import MODULE_IDENTITY_1, MODULE_IDENTITY_2, module_axiom_check
from trilie.brackets import (
    FUNDAMENTAL_IDENTITY,
    PERMUTATIONS,
    center_window,
    check_anticommutativity,
    check_constructor_agreement,
    check_fundamental_identity,
    closed_triple_fn,
    identity_residual,
    random_element,
)
from trilie.cli import main
from trilie.polys import Poly, T
from trilie.report import VerdictReport, Window

ONE = ConstantFunctional(1)


def test_dk_induced_lie_bracket():
    spec = DkInduced(1)
    assert lie_bracket(spec, L(2), L(3)) == L(6, -1)
    assert lie_bracket(spec, L(2), M(3)).is_zero()
    assert lie_bracket(spec, M(1), M(2)).is_zero()


def test_fixed_third_lie_brackets():
    assert lie_bracket(FixedThirdL(0), M(1), M(2)) == M(3)
    assert lie_bracket(FixedThirdL(2), L(1), L(5)).is_zero()
    # [L_r, M_s]_{L_k} = (r-k) L_{r+k-s}
    assert lie_bracket(FixedThirdL(1), L(3), M(2)) == L(2, 2)
    # the fixed basis vector is central
    for other in (L(-2), L(5), M(0), M(3)):
        assert lie_bracket(FixedThirdL(2), L(2), other).is_zero()
        assert lie_bracket(FixedThirdM(2), M(2), other).is_zero()


def test_omega_bracket_values():
    assert tri_bracket(OMEGA, L(1), L(2), M(0)) == L(3)
    assert tri_bracket(OMEGA, L(0), M(1), M(2)) == M(3)
    assert tri_bracket(OMEGA, L(1), L(1), M(0)).is_zero()
    assert tri_bracket(OMEGA, L(1), L(2), L(3)).is_zero()
    assert tri_bracket(OMEGA, M(1), M(2), M(3)).is_zero()


def test_fk_bracket_values():
    fk = FKBracket(1, ONE)
    assert tri_bracket(fk, L(2), L(0), M(1)) == L(3, 2)
    assert tri_bracket(fk, L(2), M(1), L(0)) == L(3, -2)
    assert tri_bracket(fk, M(0), M(1), M(2)).is_zero()
    assert tri_bracket(fk, L(1), M(0), M(2)).is_zero()
    beta = FiniteSupportFunctional({5: Fraction(1, 2)})
    fk2 = FKBracket(0, beta)
    assert tri_bracket(fk2, L(1), L(0), M(5)) == L(1, Fraction(1, 2))
    assert tri_bracket(fk2, L(1), L(0), M(4)).is_zero()


def test_determinant_bracket_matches_omega():
    for args in ((L(1), L(2), M(0)), (L(0), M(1), M(2)), (L(1), M(2), L(3))):
        assert tri_bracket(DETERMINANT, *args) == tri_bracket(OMEGA, *args)


def test_trilinearity_on_combinations():
    u = L(1, 2) + M(-1)
    v = L(0) - M(2, Fraction(1, 3))
    w = M(0) + L(3)
    direct = tri_bracket(OMEGA, u, v, w)
    expanded = Element.zero()
    for b1, c1 in u.terms.items():
        for b2, c2 in v.terms.items():
            for b3, c3 in w.terms.items():
                expanded = expanded + tri_bracket(
                    OMEGA, Element({b1: 1}), Element({b2: 1}), Element({b3: 1})
                ).scale(c1 * c2 * c3)
    assert direct == expanded


def test_from_functional_requires_certificate():
    spec = FromFunctionalBracket(DkInduced(1), ONE)
    with pytest.raises(BracketPreconditionError):
        tri_bracket(spec, L(1), L(2), M(0))
    certified, rep = certify_from_functional(DkInduced(1), ONE, Window(-3, 3))
    assert rep.ok
    assert tri_bracket(certified, L(1), L(2), M(0)) == tri_bracket(FKBracket(1, ONE), L(1), L(2), M(0))
    with pytest.raises(BracketPreconditionError):
        tri_bracket(certified, L(9), L(2), M(0))


def test_anticommutativity_window():
    assert check_anticommutativity(OMEGA, Window(-3, 3)).ok
    assert check_anticommutativity(FKBracket(1, ONE), Window(-3, 3)).ok


def test_fundamental_identity_small_windows():
    assert check_fundamental_identity(OMEGA, Window(-2, 2), 20, seed=3).ok
    assert check_fundamental_identity(FKBracket(0, ONE), Window(-2, 2), 20, seed=3).ok
    beta = PolynomialFunctional(T)
    assert check_fundamental_identity(FKBracket(2, beta), Window(-2, 2), 10, seed=3).ok


def test_constructor_agreement():
    for k in (-1, 0, 1, 2):
        rep = check_constructor_agreement(Window(-2, 2), k, ONE)
        assert rep.ok, rep.counterexamples


def test_center_fixed_third():
    basis, rep = center_window(FixedThirdL(0), Window(-4, 4))
    assert basis == [L(0)]
    basis, rep = center_window(FixedThirdL(2), Window(-4, 4))
    assert basis == [L(2)]
    basis, rep = center_window(FixedThirdM(1), Window(-4, 4))
    assert basis == [M(1)]


def test_center_dk_induced_is_m_family():
    # d_k kills M and M*L = 0, so every M is central; no L combination is
    basis, rep = center_window(DkInduced(0), Window(-3, 3))
    assert basis == [M(r) for r in range(-3, 4)]
    assert lie_bracket(DkInduced(0), L(0), L(1)) == L(1, -1)  # L_0 is not central


def test_random_element_determinism():
    import random

    a = [random_element(random.Random(9), Window(-3, 3)) for _ in range(5)]
    b = [random_element(random.Random(9), Window(-3, 3)) for _ in range(5)]
    assert a == b


# -- mutation and oracle checks of the nested-identity engine ---------------


def _doubled_llm_kernel(closed_triple_fn):
    """closed_triple_fn with the (L, L, M) coefficient doubled when r + s > 0."""

    def closed(spec):
        kernel = closed_triple_fn(spec)

        def triple(a, b, c):
            res = kernel(a, b, c)
            if res is not None and (a[0], b[0], c[0]) == ("L", "L", "M") and a[1] + b[1] > 0:
                return (2 * res[0], res[1], res[2])
            return res

        return triple

    return closed


@pytest.fixture
def broken_kernel(monkeypatch):
    """Break the closed-form kernels; return a Counter of recorded failures per check."""
    monkeypatch.setattr(brackets, "closed_triple_fn", _doubled_llm_kernel(brackets.closed_triple_fn))
    failures = Counter()
    record = VerdictReport.record_failure

    def counting(self, description):
        failures[self.check] += 1
        record(self, description)

    monkeypatch.setattr(VerdictReport, "record_failure", counting)
    return failures


def test_engine_fails_on_broken_kernel(broken_kernel):
    w = Window(-2, 2)
    reports = [
        check_fundamental_identity(OMEGA, w, 5),
        module_axiom_check(OMEGA, w, 5),
        check_anticommutativity(OMEGA, w),
    ]
    assert [r.status for r in reports] == ["fail"] * 3


def test_engine_counts_match_element_oracle(broken_kernel):
    # the counts the earlier per-identity checkers found under this mutation
    w = Window(-2, 2)
    check_fundamental_identity(OMEGA, w)
    module_axiom_check(OMEGA, w)
    check_anticommutativity(OMEGA, w)
    assert broken_kernel == {"fundamental-identity": 10532, "module-axioms": 14618, "anticommutativity": 320}

    # the same identity tuples, evaluated on Elements with tri_bracket
    basis = [Element({bv: 1}) for bv in window_basis(w)]
    fi = mod = 0
    for args in product(basis, repeat=5):
        fi += bool(identity_residual(OMEGA, FUNDAMENTAL_IDENTITY, args))
        mod += bool(identity_residual(OMEGA, MODULE_IDENTITY_1, args))
        mod += bool(identity_residual(OMEGA, MODULE_IDENTITY_2, args))
    anti = sum(
        tri_bracket(OMEGA, *(args[i] for i in perm)) != tri_bracket(OMEGA, *args).scale(sign)
        for args in product(basis, repeat=3)
        for perm, sign in PERMUTATIONS[1:]
    )
    assert (fi, mod, anti) == (10532, 14618, 320)


# -- the graded scalar-residual kernel against the Element oracle ------------

FI_CHECKS = ((FUNDAMENTAL_IDENTITY, "residual nonzero at basis tuple {},{},{};{},{}"),)
MODULE_CHECKS = (
    (MODULE_IDENTITY_1, "first module identity fails at {},{},{},{},{}"),
    (MODULE_IDENTITY_2, "second module identity fails at {},{},{},{},{}"),
)

ORACLE_WEIGHTS = (
    FKBracket(1, ConstantFunctional(2)),
    FKBracket(0, ConstantFunctional(Fraction(1, 2))),
    FKBracket(-1, FiniteSupportFunctional({-1: Fraction(1, 3), 2: Fraction(-1, 2)})),
    FKBracket(2, PolynomialFunctional(Poly((-1, 0, Fraction(1, 2))))),
)


def _oracle_failures(spec, window, checks):
    """The messages of failing (basis 5-tuple, identity) pairs, in the
    sweep's order, from Element residuals."""
    basis = window_basis(window)
    elements = [Element({bv: 1}) for bv in basis]
    for slots in product(range(len(basis)), repeat=5):
        args = [elements[i] for i in slots]
        for identity, message in checks:
            if identity_residual(spec, identity, args):
                yield message.format(*(tuple(basis[i]) for i in slots))


@pytest.mark.parametrize("spec", ORACLE_WEIGHTS, ids=lambda spec: spec.describe())
def test_kernel_matches_element_oracle(broken_kernel, spec):
    w = Window(-2, 2)
    for check, checks in ((check_fundamental_identity, FI_CHECKS), (module_axiom_check, MODULE_CHECKS)):
        rep = check(spec, w)
        failures = list(_oracle_failures(spec, w, checks))
        assert failures
        assert broken_kernel[rep.check] == len(failures)
        assert rep.counterexamples == failures[: VerdictReport.MAX_COUNTEREXAMPLES]


def test_kernel_first_counterexamples_match_element_oracle_omega(broken_kernel):
    # test_engine_counts_match_element_oracle checks the omega counts
    w = Window(-2, 2)
    for check, checks in ((check_fundamental_identity, FI_CHECKS), (module_axiom_check, MODULE_CHECKS)):
        rep = check(OMEGA, w)
        first = list(islice(_oracle_failures(OMEGA, w, checks), VerdictReport.MAX_COUNTEREXAMPLES))
        assert rep.counterexamples == first


def _shifted_llm_kernel(closed_triple_fn):
    """closed_triple_fn with the (L, L, M) output index shifted by one when r + s > 0."""

    def closed(spec):
        kernel = closed_triple_fn(spec)

        def triple(a, b, c):
            res = kernel(a, b, c)
            if res is not None and (a[0], b[0], c[0]) == ("L", "L", "M") and a[1] + b[1] > 0:
                return (res[0], res[1], res[2] + 1)
            return res

        return triple

    return closed


def test_kernel_rejects_broken_grading(monkeypatch, capsys):
    monkeypatch.setattr(brackets, "closed_triple_fn", _shifted_llm_kernel(brackets.closed_triple_fn))
    w = Window(-2, 2)
    for spec in (OMEGA, FKBracket(1, ONE)):
        for check in (check_fundamental_identity, module_axiom_check):
            with pytest.raises(ValueError, match="breaks its grading"):
                check(spec, w)
    for bracket in ("omega", "fk"):
        assert main(["verify", "fundamental-identity", "--bracket", bracket, "--window", "-1..1"]) == 2
        assert "breaks its grading" in capsys.readouterr().err


def test_module_axioms_counterexamples_under_mutation(broken_kernel):
    # the list the per-tuple dict accumulator reported under this mutation
    rep = module_axiom_check(OMEGA, Window(-2, 2))
    assert rep.counterexamples == [
        "second module identity fails at ('L', -2),('L', -1),('L', 2),('M', -2),('M', -2)",
        "first module identity fails at ('L', -2),('L', -1),('L', 2),('M', -2),('M', -1)",
        "second module identity fails at ('L', -2),('L', -1),('L', 2),('M', -2),('M', -1)",
        "first module identity fails at ('L', -2),('L', -1),('L', 2),('M', -2),('M', 0)",
        "second module identity fails at ('L', -2),('L', -1),('L', 2),('M', -2),('M', 0)",
        "first module identity fails at ('L', -2),('L', -1),('L', 2),('M', -2),('M', 1)",
        "second module identity fails at ('L', -2),('L', -1),('L', 2),('M', -2),('M', 1)",
        "first module identity fails at ('L', -2),('L', -1),('L', 2),('M', -2),('M', 2)",
    ]


def test_closed_kernel_built_once_per_spec():
    assert closed_triple_fn(FKBracket(1, ConstantFunctional(Fraction(2)))) is closed_triple_fn(
        FKBracket(1, ConstantFunctional(2))
    )
    assert closed_triple_fn(DETERMINANT) is None
