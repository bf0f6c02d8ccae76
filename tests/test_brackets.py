import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, islice, product, starmap
from operator import itemgetter

import oracles
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ROW_MUTATIONS, mutated_rows, nonzero_elements
from oracles import DETERMINANT, BracketPreconditionError, FromFunctionalBracket, certify_from_functional
from trilie import (
    OMEGA,
    ConstantFunctional,
    DkInduced,
    Element,
    FKBracket,
    FiniteSupportFunctional,
    FixedThirdL,
    FixedThirdM,
    L,
    M,
    PolynomialFunctional,
    lie_bracket,
    parse_beta,
    tri_bracket,
)
from trilie import brackets, window_basis
from trilie.analysis import MODE_DERIVED, MODULE_IDENTITY_1, MODULE_IDENTITY_2, module_axiom_check
from trilie.brackets import (
    FUNDAMENTAL_IDENTITY,
    INNER,
    OUTER_AT,
    PERMUTATIONS,
    _antisymmetric,
    _compile_term,
    _field_width,
    _representatives,
    _sweep_tables,
    _symmetries,
    _unpack,
    check_nested_identities,
    center_window,
    check_anticommutativity,
    check_constructor_agreement,
    check_fundamental_identity,
    closed_triple_fn,
    expand_rows,
    identity_residual,
    random_element,
    rule_table,
)
from trilie.cli import main
from trilie.polys import Poly, T
from trilie.report import ConfigError, VerdictReport, Window

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
        assert oracles.tri_bracket(DETERMINANT, *args) == tri_bracket(OMEGA, *args)


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
        oracles.tri_bracket(spec, L(1), L(2), M(0))
    certified, rep = certify_from_functional(DkInduced(1), ONE, Window(-3, 3))
    assert rep.ok
    assert oracles.tri_bracket(certified, L(1), L(2), M(0)) == tri_bracket(FKBracket(1, ONE), L(1), L(2), M(0))
    with pytest.raises(BracketPreconditionError):
        oracles.tri_bracket(certified, L(9), L(2), M(0))


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


def test_anticommutativity_fails_on_one_swapped_output(monkeypatch):
    """A plain kernel (no rules) whose coefficients stay antisymmetric but
    which sends one triple to another output vector: the output comparison
    alone must fail the check, naming that triple."""
    closed = brackets.closed_triple_fn
    target = (("L", 1), ("L", 0), ("M", 0))  # omega: -L[1]

    def swapped(spec):
        kernel = closed(spec)

        def triple(a, b, c):
            res = kernel(a, b, c)
            return (res[0], "M", res[2]) if (a, b, c) == target else res

        return triple

    monkeypatch.setattr(brackets, "closed_triple_fn", swapped)
    rep = check_anticommutativity(OMEGA, Window(-1, 1))
    assert rep.status == "fail"
    assert sum(text.startswith("[L[1], L[0], M[0]] vs permutation") for text in rep.counterexamples) == 5
    assert all("M[1]" in text for text in rep.counterexamples)


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

    # the same identity tuples, evaluated by two plain kernel calls per term
    fi = mod = 0
    for args in product(window_basis(w), repeat=5):
        fi += bool(oracles.basis_residual(OMEGA, FUNDAMENTAL_IDENTITY, args))
        mod += bool(oracles.basis_residual(OMEGA, MODULE_IDENTITY_1, args))
        mod += bool(oracles.basis_residual(OMEGA, MODULE_IDENTITY_2, args))
    # and the permuted triples on Elements with tri_bracket
    basis = [Element({bv: 1}) for bv in window_basis(w)]
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
    sweep's order, from plain kernel residuals."""
    for args in product(window_basis(window), repeat=5):
        for identity, message in checks:
            if oracles.basis_residual(spec, identity, args):
                yield message.format(*map(tuple, args))


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
    for spec in (OMEGA, FKBracket(1, ONE), FKBracket(1, ConstantFunctional(Fraction(1, 2)))):
        for check in (check_fundamental_identity, module_axiom_check):
            with pytest.raises(ValueError, match="breaks its grading") as exc:
                check(spec, w)
            # the text names the checked bracket, not the one its weight was scaled into
            assert str(exc.value).startswith(f"{spec.describe()} breaks its grading")
    assert spec.describe() == "fk(k=1, beta=const:1/2)"
    for bracket in ("omega", "fk"):
        assert main(["verify", "fundamental-identity", "--bracket", bracket, "--window", "-1..1"]) == 2
        assert "breaks its grading" in capsys.readouterr().err


# rows off the grading: the first entry that breaks it, in table order, as the parent printed it
GRADING_BREAKS = {
    "fk llm index (1, 1, 1)": "fk(k=1, beta=const:1) breaks its grading: [('L', -1), ('L', 0), ('M', -1)] "
    "lands on ('L', -1), the grading puts it on ('L', 0)",
    "omega llm index (1, 1, 0)": "omega breaks its grading: [('L', -1), ('L', 0), ('M', -1)] "
    "lands on ('L', -1), the grading puts it on ('L', 0)",
    "fk llm on M": "fk(k=1, beta=const:1) breaks its grading: [('L', -1), ('L', 0), ('M', -1)] "
    "lands on ('M', 0), the grading puts it on ('L', 0)",
}


@pytest.mark.parametrize("mutation", sorted(GRADING_BREAKS))
def test_rules_off_the_grading_exit_2_with_the_first_entry(mutation, patch_row, capsys):
    """A rule off the grading sends the sweep to the per-triple tables, which
    name the first entry that breaks it; anticommutativity checks no grading."""
    bracket, i, fields = ROW_MUTATIONS[mutation]
    patch_row(bracket, i, **fields)
    for check in ("fundamental-identity", "module-axioms"):
        assert main(["verify", check, "--bracket", bracket, "--window=-1..1"]) == 2
        assert capsys.readouterr() == ("", f"trilie: {GRADING_BREAKS[mutation]}\n")
    assert main(["verify", "anticommutativity", "--bracket", bracket, "--window=-1..1"]) == 0


# a plain kernel off the grading only where the argument at one position lies
# outside -1..1: the inner table and the outer tables before that position
# hold no such argument, so the first break has the coded vector in place
OUTER_GRADING_BREAKS = {
    ("omega", 1): "omega breaks its grading: [('L', -1), ('L', -2), ('M', -1)] "
    "lands on ('L', -1), the grading puts it on ('L', -2)",
    ("omega", 2): "omega breaks its grading: [('L', -1), ('M', -1), ('L', -2)] "
    "lands on ('L', -1), the grading puts it on ('L', -2)",
    ("fk", 1): "fk(k=1, beta=const:1) breaks its grading: [('L', -1), ('L', 2), ('M', -1)] "
    "lands on ('L', 3), the grading puts it on ('L', 2)",
    ("fk", 2): "fk(k=1, beta=const:1) breaks its grading: [('L', -1), ('M', -1), ('L', 2)] "
    "lands on ('L', 3), the grading puts it on ('L', 2)",
}


@pytest.mark.parametrize("bracket, position", sorted(OUTER_GRADING_BREAKS))
def test_grading_breaks_in_the_outer_tables_keep_argument_order(monkeypatch, bracket, position):
    window, closed = Window(-1, 1), brackets.closed_triple_fn

    def shifted_outside(spec):
        kernel = closed(spec)

        def triple(*args):
            res = kernel(*args)
            if res is not None and args[position][1] not in window:
                return (res[0], res[1], res[2] + 1)
            return res

        return triple

    monkeypatch.setattr(brackets, "closed_triple_fn", shifted_outside)
    spec = {"omega": OMEGA, "fk": FKBracket(1, ONE)}[bracket]
    basis = [(bv.family, bv.index) for bv in window_basis(window)]
    for tables in (_sweep_tables, oracles.sweep_tables):
        with pytest.raises(ConfigError) as exc:
            tables(spec, basis)
        assert str(exc.value) == OUTER_GRADING_BREAKS[bracket, position]


def test_rules_with_a_shifted_index_exit_2(monkeypatch):
    """The rule check reads the kernel's index shift too: fk rules shifted by
    one more than k take the per-triple path and fail its grading check."""
    closed = brackets.closed_triple_fn

    def shifted(spec):
        rules, k, weight = closed(spec).rules
        return brackets.rule_kernel(rules, k + 1, weight)

    monkeypatch.setattr(brackets, "closed_triple_fn", shifted)
    with pytest.raises(ValueError, match=r"lands on \('L', 1\), the grading puts it on \('L', 0\)"):
        check_fundamental_identity(FKBracket(1, ONE), Window(-1, 1))


# -- tables built from the product rules ----------------------------------------

TABLE_WEIGHTS = ("const:1", "const:1/2", "support:0=1,2=-1/3", "poly:1/2*t^2-1")
TABLE_SPECS = [OMEGA] + [FKBracket(k, parse_beta(b)) for k in range(-3, 4) for b in TABLE_WEIGHTS]
TABLE_BASES = [
    *([(bv.family, bv.index) for bv in window_basis(w)] for w in (Window(-3, 3), Window(-2, 5), Window(1, 4))),
    [("L", 0), ("M", 0)],
]


def _per_triple_table(kernel, slots, at=(0, 1, 2)):
    """(coefficients, outputs) of one kernel call per triple of
    ``product(*slots)``, vector j at argument position at[j]."""
    args = itemgetter(*map(at.index, range(3)))
    entries = list(starmap(kernel, map(args, product(*slots))))
    return [0 if res is None else res[0] for res in entries], [None if res is None else res[1:] for res in entries]


def _cartan_slots(spec, basis):
    """The slot lists of the Cartan normalizer's table (unknowns, generator
    vectors, unknowns) and of each weight table ([h1], [h2], basis), with the
    battery's Cartan vectors on the indices of ``basis``."""
    if spec == OMEGA:
        gens, pairs = [("L", 0), ("M", 0)], [(("L", 0), ("M", 0))]
    else:
        ms = [("M", t) for t in sorted({i for _, i in basis})]
        gens, pairs = [("L", -spec.k), *ms], [(("L", -spec.k), m) for m in ms]
    return [(basis, gens, basis), *(([h1], [h2], basis) for h1, h2 in pairs)]


@pytest.mark.parametrize("mutation", sorted(ROW_MUTATIONS))
def test_rule_built_tables_equal_the_per_triple_tables(mutation, patch_row):
    """The anticommutativity table and the sweep's inner and outer tables,
    built from the rules, are the scaled kernel's values triple by triple;
    the window³ table and the Cartan and weight tables of the unscaled
    kernel, rational weights included, are its values too."""
    broken = ROW_MUTATIONS[mutation]
    specs = TABLE_SPECS
    if broken is not None:
        bracket, i, fields = broken
        patch_row(bracket, i, **fields)
        specs = [s for s in TABLE_SPECS if (s == OMEGA) == (bracket == "omega")]
    for spec in specs:
        kernel = closed_triple_fn(brackets.integral_spec(spec)[1])
        for basis in TABLE_BASES:
            coefs, outs = _per_triple_table(kernel, (basis,) * 3)
            assert rule_table(kernel, (basis,) * 3) == (coefs, outs), (spec, basis)
            ext = sorted({vec for vec in outs if vec is not None})
            for at in OUTER_AT:
                slots = (ext, basis, basis)
                assert rule_table(kernel, slots, at) == _per_triple_table(kernel, slots, at), (spec, basis, at)
            unscaled = closed_triple_fn(spec)
            for slots in [(basis,) * 3, *_cartan_slots(spec, basis)]:
                assert rule_table(unscaled, slots) == _per_triple_table(unscaled, slots), (spec, basis, slots)


@pytest.mark.parametrize("beta", ["const:1", *TABLE_WEIGHTS[1:]])
def test_rule_tables_read_plain_kernels_and_rational_weights(beta):
    """A kernel without rules is called once per triple, and a rational
    weight is built from the rules like an integer one: both equal one
    kernel call per triple, and rule_table never returns None."""
    basis = [(bv.family, bv.index) for bv in window_basis(Window(-2, 3))]
    for spec in (OMEGA, *(FKBracket(k, parse_beta(beta)) for k in (-1, 0, 2))):
        kernel = closed_triple_fn(spec)
        calls = []

        def plain(a, b, c):
            calls.append((a, b, c))
            return kernel(a, b, c)

        for at in OUTER_AT:
            slots = (basis[::2], basis, basis[1:])
            want = _per_triple_table(kernel, slots, at)
            assert rule_table(kernel, slots, at) == want, (spec, at)
            calls.clear()
            assert rule_table(plain, slots, at) == want, (spec, at)
            assert len(calls) == len(basis[::2]) * len(basis) * len(basis[1:])
    assert rule_table(lambda a, b, c: None, (basis,) * 3) == ([0] * len(basis) ** 3, [None] * len(basis) ** 3)


def test_a_non_integral_scaled_weight_is_refused_with_a_value_error(monkeypatch, capsys):
    """An integral_spec that does not clear the weight's denominators hands
    the sweeps a rule kernel with Fraction beta values: beta is read once
    per index for ints, and the tables are refused with the per-entry text,
    the same ValueError a plain kernel gets, never a TypeError from the
    packing."""
    monkeypatch.setattr(brackets, "integral_spec", lambda spec: (1, spec))
    closed = brackets.closed_triple_fn

    def refusals(spec, window):
        texts = []
        for check in (check_fundamental_identity, module_axiom_check):
            with pytest.raises(ValueError) as exc:
                check(spec, window)
            assert type(exc.value) is ValueError and "does not divide 1" in str(exc.value)
            texts.append(str(exc.value))
        return texts

    for beta, window in (("const:1/2", Window(-1, 1)), ("support:0=1,2=-1/3", Window(-1, 2))):
        spec = FKBracket(1, parse_beta(beta))
        by_rules = refusals(spec, window)
        with monkeypatch.context() as m:
            m.setattr(brackets, "closed_triple_fn", lambda spec: lambda a, b, c: closed(spec)(a, b, c))
            assert refusals(spec, window) == by_rules
    text = "kernel coefficient -1/2 has a denominator that does not divide 1"
    argv = ["verify", "fundamental-identity", "--bracket", "fk", "--beta", "const:1/2", "--window=-1..1"]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"trilie: internal error: ValueError: {text}\n"


def test_passing_sweeps_build_every_table_from_the_rules(monkeypatch):
    """Passing sweeps call the kernel on no triple: the counting kernel keeps
    its rules, so every table is built from them."""
    calls, built = [], []
    closed, table = brackets.closed_triple_fn, brackets.rule_table

    def counting(spec):
        kernel = closed(spec)

        def triple(a, b, c):
            calls.append((a, b, c))
            return kernel(a, b, c)

        triple.rules = kernel.rules
        return triple

    def counted(kernel, slots, at=(0, 1, 2)):
        built.append(table(kernel, slots, at))
        return built[-1]

    monkeypatch.setattr(brackets, "closed_triple_fn", counting)
    monkeypatch.setattr(brackets, "rule_table", counted)
    for bracket in (["--bracket", "omega"], ["--bracket", "fk", "--k", "-1", "--beta", "poly:1/2*t^2-1"]):
        for check in ("anticommutativity", "fundamental-identity", "module-axioms"):
            assert main(["verify", check, *bracket, "--window=-2..2", "--samples", "0"]) == 0
    assert calls == []
    assert len(built) == 2 * (1 + 4 + 4) and None not in built


def test_fk_values_with_one_l_argument_break_the_grading(monkeypatch):
    """Under fk a bracket with one L argument has no value at all: one on M
    at minus the degree, where the omega grading would put it, is refused."""
    closed = brackets.closed_triple_fn

    def closed_with_lmm(spec):
        kernel = closed(spec)

        def triple(a, b, c):
            if (a[0], b[0], c[0]) == ("L", "M", "M"):
                return (1, "M", -(a[1] + 2 * spec.k))
            return kernel(a, b, c)

        return triple

    monkeypatch.setattr(brackets, "closed_triple_fn", closed_with_lmm)
    with pytest.raises(ValueError) as exc:
        check_fundamental_identity(FKBracket(0, ONE), Window(-1, 1))
    assert str(exc.value) == (
        "fk(k=0, beta=const:1) breaks its grading: [('L', -1), ('M', -1), ('M', -1)] "
        "lands on ('M', 1), the grading puts it on None"
    )


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


@pytest.mark.parametrize("spec", [DETERMINANT, DkInduced(1)], ids=lambda spec: spec.describe())
def test_unknown_spec_has_no_kernel(spec):
    for lookup in (brackets.bracket_rules, closed_triple_fn):
        with pytest.raises(TypeError, match="unknown ternary bracket spec"):
            lookup(spec)
    with pytest.raises(TypeError, match="unknown ternary bracket spec"):
        tri_bracket(spec, L(1), L(2), M(0))


# -- the packed-lane kernel against the lane-by-lane oracle --------------------

PARITY_SPECS = (
    OMEGA,
    FKBracket(1, ONE),
    FKBracket(0, ConstantFunctional(Fraction(1, 2))),
    FKBracket(-1, parse_beta("support:-1=1,2=-1/3")),
    FKBracket(2, parse_beta("poly:1/2*t^2-1")),
    FKBracket(1, parse_beta("const:1000/7")),
)
PARITY_WINDOWS = (Window(0, 0), Window(-1, 1), Window(-2, 1))  # the last asymmetric
SHIPPED = (
    ((FUNDAMENTAL_IDENTITY, "fundamental {},{},{};{},{}"),),
    ((MODULE_IDENTITY_1, "first {},{},{},{},{}"), (MODULE_IDENTITY_2, "second {},{},{},{},{}")),
)


@st.composite
def nested_terms(draw):
    """A term (sign, inner, outer) bracketing each of the five slots once."""
    slots = draw(st.permutations(range(5)))
    outer = [slots[3], slots[4]]
    outer.insert(draw(st.integers(0, 2)), INNER)
    return draw(st.sampled_from((1, -1))), tuple(slots[:3]), tuple(outer)


DRAWN = st.lists(
    st.lists(nested_terms(), min_size=1, max_size=5).map(tuple), min_size=1, max_size=2
).map(lambda ids: tuple((identity, f"drawn {i} at {{}},{{}},{{}},{{}},{{}}") for i, identity in enumerate(ids)))

# a row change that keeps the grading: a new coefficient form for one row
PATCHES = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from((("omega", 0), ("omega", 1), ("fk", 0))),
        st.tuples(*[st.integers(-3, 3)] * 3),
    ),
)
WINDOWS = st.builds(Window, st.integers(-2, 0), st.integers(0, 1))
PATCHED_SPECS = [(OMEGA, None), (OMEGA, (("omega", 0), (-2, 1, 0))), (OMEGA, (("omega", 1), (0, 1, -1)))] + [
    (spec, (("fk", 0), (2, -1, 0))) for spec in PARITY_SPECS[1:]
]


@contextmanager
def _patched_coef(patch):
    with pytest.MonkeyPatch.context() as mp:
        if patch is not None:
            (bracket, i), coef = patch
            rows = list(brackets.PRODUCT_ROWS[bracket])
            rows[i] = rows[i]._replace(coef=coef)
            mp.setitem(brackets.PRODUCT_ROWS, bracket, tuple(rows))
            mp.setitem(brackets.RULES, bracket, expand_rows(rows))
        mp.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**9)
        closed_triple_fn.cache_clear()
        try:
            yield
        finally:
            closed_triple_fn.cache_clear()


def _packed_failures(spec, window, checks):
    rep = VerdictReport("parity", {})
    check_nested_identities(rep, spec, window, 0, 0, [(identity, message, "") for identity, message in checks])
    return rep.counterexamples


@pytest.mark.parametrize("checks", SHIPPED, ids=("fundamental", "module"))
@pytest.mark.parametrize("spec, patch", PATCHED_SPECS, ids=lambda v: v.describe() if hasattr(v, "describe") else str(v))
def test_packed_kernel_matches_lane_oracle_on_shipped_identities(spec, patch, checks):
    with _patched_coef(patch):
        for window in PARITY_WINDOWS:
            failures = oracles.lane_failures(spec, window, checks)
            assert _packed_failures(spec, window, checks) == failures
    assert failures or patch is None


@settings(max_examples=40)
@given(spec=st.sampled_from(PARITY_SPECS), window=WINDOWS, patch=PATCHES, checks=DRAWN)
def test_packed_kernel_matches_lane_oracle_on_drawn_identities(spec, window, patch, checks):
    with _patched_coef(patch):
        assert _packed_failures(spec, window, checks) == oracles.lane_failures(spec, window, checks)


@pytest.mark.parametrize("patch", [None, (("omega", 0), (-2, 1, 0)), (("fk", 0), (2, -1, 0))])
@pytest.mark.parametrize("spec", PARITY_SPECS, ids=lambda spec: spec.describe())
def test_packed_rows_unpack_to_the_lane_oracle_rows(spec, patch):
    """Every residual lane, not only the failing ones: a field width too
    small for the coefficients (const:1000/7) would change some value."""
    window = Window(-2, 1)
    identities = [FUNDAMENTAL_IDENTITY, MODULE_IDENTITY_1, MODULE_IDENTITY_2]
    with _patched_coef(patch):
        basis = [(bv.family, bv.index) for bv in window_basis(window)]
        n, tables = len(basis), _sweep_tables(spec, basis)
        w, cache = _field_width(tables, 4), {}
        compiled = [[_compile_term(*term, n, tables, w, cache) for term in identity] for identity in identities]
        nonzero = 0
        for a, pos, row in oracles.lane_residuals(spec, window, identities):
            assert _unpack(sum(term(*a) for term in compiled[pos]), w, n * n) == row
            nonzero += any(row)
    patched = patch is not None and patch[0][0] == ("omega" if spec == OMEGA else "fk")
    assert (nonzero > 0) == patched


def _ruleless_lll_kernel(closed_triple_fn):
    return _ruleless_kernel(closed_triple_fn, ("L", "L", "L"))


@pytest.mark.parametrize(
    "breakage", [None, _shifted_llm_kernel, _ruleless_lll_kernel], ids=("shipped", "shifted", "ruleless")
)
@pytest.mark.parametrize("spec", PARITY_SPECS, ids=lambda spec: spec.describe())
def test_sweep_tables_match_the_rational_oracle(monkeypatch, spec, breakage):
    """The tables over the scaled weight, read as rationals through its
    bound B, are the rational tables read through their lcm, with the same
    codes; a kernel that breaks the grading gets the same error from both."""
    if breakage is not None:
        monkeypatch.setattr(brackets, "closed_triple_fn", breakage(brackets.closed_triple_fn))
    unit, errors = brackets.integral_spec(spec)[0], 0
    for window in PARITY_WINDOWS:
        basis = [(bv.family, bv.index) for bv in window_basis(window)]
        try:
            (coef, base, outer), scale = oracles.sweep_tables(spec, basis)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                _sweep_tables(spec, basis)
            assert str(got.value) == str(exc)
            errors += 1
            continue
        tables = _sweep_tables(spec, basis)
        assert tables[1] == base
        for new, old in ((tables[0], coef), *zip(tables[2], outer)):
            assert all(type(c) is int for c in new)
            assert [Fraction(c, unit) for c in new] == [Fraction(c, scale) for c in old]
    assert (errors > 0) == (breakage is not None)


@given(w=st.integers(1, 40), data=st.data())
def test_unpack_inverts_packing_up_to_the_field_bound(w, data):
    top = (1 << (w - 1)) - 1
    values = data.draw(st.lists(st.sampled_from((top, -top, 0)) | st.integers(-top, top), min_size=1, max_size=30))
    packed = sum(v << w * i for i, v in enumerate(values))
    assert _unpack(packed, w, len(values)) == values
    assert (packed == 0) == (not any(values))


def test_field_width_holds_a_residual_at_the_bound():
    # tables of a two-vector window whose every entry is c (inner) or d (outer):
    # four equal terms put terms * |c| * |d| on every lane, the bound itself
    c, d = 7, -5
    tables = ([c] * 8, [0] * 8, [[d] * 4] * 3)
    w = _field_width(tables, 4)
    for sign in (1, -1):
        terms = [_compile_term(sign, (0, 1, 2), (INNER, 3, 4), 2, tables, w, {}) for _ in range(4)]
        assert _unpack(sum(term(0, 0, 0) for term in terms), w, 4) == [sign * 4 * c * d] * 4


def test_nested_terms_need_a_unit_sign_and_each_slot_once():
    tables = _sweep_tables(OMEGA, [("L", 0), ("M", 0)])
    args = [L(1), L(2), M(0), L(0), M(1)]
    for term in (
        (2, (0, 1, 2), (INNER, 3, 4)),
        (1, (0, 1, 1), (INNER, 3, 4)),
        (-1, (0, 1, 2), (INNER, 3, 3)),
        (1, (0, 1, INNER), (2, 3, 4)),
    ):
        with pytest.raises(ValueError, match="unit sign and each slot once"):
            _compile_term(*term, 2, tables, 1, {})
        with pytest.raises(ValueError, match="unit sign and each slot once"):
            identity_residual(OMEGA, (term,), args)


# -- the orbit sweep: symmetries of the identities, antisymmetry of the rules ---

# a weight that differs between indices, so a beta read at the wrong slot changes a value
SYMMETRY_SPECS = {"omega": OMEGA, "fk": FKBracket(1, parse_beta("poly:1/2*t^2-1"))}
REFUSED_ROWS = (
    "omega llm coef (-2, 1, 0)",
    "omega lmm coef (1, -1, 1)",
    "omega lmm index (-1, 1, 0)",
    "fk llm coef (2, -1, 0)",
)
ANTISYMMETRIC_ROWS = tuple(m for m in ROW_MUTATIONS if m != "intact" and m not in REFUSED_ROWS)
# (bracket, mutation): the intact rules of both brackets and each antisymmetric mutation of its own
RULE_CASES = (("omega", "intact"), ("fk", "intact"), *((ROW_MUTATIONS[m][0], m) for m in ANTISYMMETRIC_ROWS))


def _swept_rules(spec):
    """The (rules, shift, weight) of the kernel the basis sweep reads."""
    return closed_triple_fn(brackets.integral_spec(spec)[1]).rules


@contextmanager
def _installed(mutation):
    """``mutated_rows(mutation)`` with every counterexample kept."""
    with mutated_rows(mutation), pytest.MonkeyPatch.context() as mp:
        mp.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**9)
        yield


def test_symmetries_of_the_shipped_identities():
    assert _symmetries(FUNDAMENTAL_IDENTITY) == list(PERMUTATIONS)
    assert _symmetries(MODULE_IDENTITY_1) == list(PERMUTATIONS)
    assert _symmetries(MODULE_IDENTITY_2) == [((0, 1, 2), 1), ((1, 0, 2), -1)]


def _assert_symmetric_residuals(spec, identity, window) -> bool:
    """R(a permuted by perm) = sign * R(a) on every basis 5-tuple of the
    window, for every derived (perm, sign); returns whether R is nonzero somewhere."""
    residual = {a: oracles.basis_residual(spec, identity, a) for a in product(window_basis(window), repeat=5)}
    for perm, sign in _symmetries(identity):
        for a, value in residual.items():
            permuted = residual[(*itemgetter(*perm)(a), *a[3:])]
            assert permuted == {vec: sign * c for vec, c in value.items()}, (identity, perm, a)
    return any(residual.values())


@pytest.mark.parametrize("bracket, mutation", RULE_CASES, ids=lambda v: v)
def test_derived_symmetries_hold_on_residuals(bracket, mutation):
    with mutated_rows(mutation):
        assert _antisymmetric(*_swept_rules(SYMMETRY_SPECS[bracket])[::2])
        nonzero = [_assert_symmetric_residuals(SYMMETRY_SPECS[bracket], i, Window(-1, 0)) for i in RESIDUAL_IDENTITIES]
    # the truncated identities have residuals, so a claimed symmetry they lack would show
    assert all(nonzero[3:])


@settings(max_examples=25)
@given(case=st.sampled_from(RULE_CASES), checks=DRAWN)
def test_derived_symmetries_hold_on_drawn_residuals(case, checks):
    bracket, mutation = case
    with mutated_rows(mutation):
        for identity, _ in checks:
            _assert_symmetric_residuals(SYMMETRY_SPECS[bracket], identity, Window(-1, 0))


def test_antisymmetry_check_refuses_edited_rules():
    rules = brackets.RULES["omega"]
    family, index, coef, t = rules["L", "M", "L"]
    negated = {**rules, ("L", "M", "L"): (family, index, tuple(-c for c in coef), t)}
    missing = {pattern: rule for pattern, rule in rules.items() if pattern != ("M", "L", "M")}
    assert _antisymmetric(rules, None)
    assert not _antisymmetric(negated, None)
    assert not _antisymmetric(missing, None)
    # under a weight slot t must follow the permutation; without one it is never read
    rules, weight = brackets.RULES["fk"], SYMMETRY_SPECS["fk"].functional
    family, index, coef, t = rules["L", "M", "L"]
    moved = {**rules, ("L", "M", "L"): (family, index, coef, (t + 1) % 3)}
    assert _antisymmetric(rules, weight)
    assert not _antisymmetric(moved, weight)
    assert _antisymmetric(moved, None)


@pytest.mark.parametrize("mutation", list(ROW_MUTATIONS)[1:])
def test_antisymmetry_check_refuses_exactly_the_skewed_row_mutations(mutation):
    assert len(ANTISYMMETRIC_ROWS) == 6
    with mutated_rows(mutation):
        rules, _, weight = _swept_rules(SYMMETRY_SPECS[ROW_MUTATIONS[mutation][0]])
        assert _antisymmetric(rules, weight) == (mutation not in REFUSED_ROWS)


def _counted_terms(monkeypatch) -> list:
    """Patch ``_compile_term`` so every evaluation of a compiled term appends its (a0, a1, a2)."""
    calls, compile_term = [], brackets._compile_term

    def counting(*args):
        term = compile_term(*args)
        return lambda *a: calls.append(a) or term(*a)

    monkeypatch.setattr(brackets, "_compile_term", counting)
    return calls


@pytest.mark.parametrize(
    "bracket, mutation, orbits",
    [
        ("omega", "intact", True),
        ("fk", "intact", True),
        ("omega", "omega llm coef (-2, 1, 0)", False),
        ("fk", "fk llm coef (2, -1, 0)", False),
    ],
)
def test_the_orbit_route_runs_only_on_antisymmetric_rules(monkeypatch, bracket, mutation, orbits):
    """Antisymmetric rules that pass evaluate FI's terms on the 364 strictly
    increasing triples of -3..3; refused rules on all 2,744.  Either way the
    failures are the lane oracle's."""
    spec, window, checks = SYMMETRY_SPECS[bracket], Window(-3, 3), SHIPPED[0]
    calls = _counted_terms(monkeypatch)
    with _installed(mutation):
        failures = oracles.lane_failures(spec, window, checks)
        assert _packed_failures(spec, window, checks) == failures
    assert bool(failures) != orbits
    triples = list(combinations(range(14), 3)) if orbits else list(product(range(14), repeat=3))
    assert calls == [a for a in triples for _ in FUNDAMENTAL_IDENTITY]


def test_a_kernel_without_rules_takes_the_full_route(monkeypatch, broken_kernel):
    spec, window, checks = OMEGA, Window(-3, 3), SHIPPED[0]
    calls = _counted_terms(monkeypatch)
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**9)
    assert _packed_failures(spec, window, checks) == oracles.lane_failures(spec, window, checks)
    assert len(calls) == 4 * 14**3 and len(set(calls)) == 14**3


def test_module_identities_run_on_their_own_orbits(monkeypatch):
    """-2..2 has n = 10: the first identity keeps the 120 strictly increasing
    triples, the second the 450 with a0 < a1."""
    calls = _counted_terms(monkeypatch)
    assert _packed_failures(OMEGA, Window(-2, 2), SHIPPED[1]) == []
    assert len(calls) == 4 * 120 + 4 * 450
    assert set(calls[: 4 * 120]) == set(combinations(range(10), 3))
    assert set(calls[4 * 120 :]) == {a for a in product(range(10), repeat=3) if a[0] < a[1]}


def _outcome(sweep, *args):
    """A sweep's failures, or the text of the grading error it raises."""
    try:
        return sweep(*args)
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("window", [Window(0, 0), Window(-1, 0)], ids=("n=2", "n=4"))
def test_small_windows_report_what_the_full_sweep_reports(window):
    n, sweeps, failed = len(window_basis(window)), (_packed_failures, oracles.lane_failures), 0
    assert len(_representatives(_symmetries(FUNDAMENTAL_IDENTITY), n)) == n * (n - 1) * (n - 2) // 6
    for mutation, row in ROW_MUTATIONS.items():
        for bracket in ("omega", "fk") if row is None else (row[0],):
            with _installed(mutation):
                for checks in SHIPPED:
                    runs = [_outcome(sweep, SYMMETRY_SPECS[bracket], window, checks) for sweep in sweeps]
                    assert runs[0] == runs[1], (mutation, bracket)
                    failed += bool(runs[0])
    # no mutation shows on L[0], M[0]; on -1..0 several do, through the orbit route first
    assert (failed > 0) == (n > 2)


def test_a_malformed_identity_raises_before_any_symmetry_is_derived(monkeypatch):
    derived = []
    monkeypatch.setattr(brackets, "_symmetries", lambda identity: derived.append(identity) or list(PERMUTATIONS))
    for term in ((2, (0, 1, 2), (INNER, 3, 4)), (1, (0, 1, INNER), (2, 3, 4))):
        checks = ((FUNDAMENTAL_IDENTITY, "{},{},{},{},{}"), (FUNDAMENTAL_IDENTITY[1:] + (term,), "{},{},{},{},{}"))
        with pytest.raises(ValueError, match="unit sign and each slot once"):
            _packed_failures(OMEGA, Window(-1, 1), checks)
    assert derived == []


# -- the fused sampled residual against the per-triple reference ----------------

RESIDUAL_SPECS = (
    OMEGA,
    FKBracket(1, parse_beta("const:2")),
    FKBracket(0, parse_beta("const:1/2")),
    FKBracket(-1, parse_beta("support:-1=1,2=-1/3")),
    FKBracket(2, parse_beta("poly:1/2*t^2-1")),
)
# the shipped identities, and truncations of them whose residuals are nonzero
RESIDUAL_IDENTITIES = (
    FUNDAMENTAL_IDENTITY,
    MODULE_IDENTITY_1,
    MODULE_IDENTITY_2,
    FUNDAMENTAL_IDENTITY[:3],
    MODULE_IDENTITY_1[1:],
    MODULE_IDENTITY_2[:1],
)
# nonzero elements with mixed denominators, so that most drawn tuples reach the kernel
TUPLE_ELEMENTS = nonzero_elements(max_terms=4, index_bound=2)


def _canonical(elem):
    """Every coefficient an int where it is integral and a Fraction otherwise (never a float)."""
    return all(c and (type(c) is int or type(c) is Fraction and c.denominator > 1) for c in elem.terms.values())


# -- the element bracket against the rational per-term reference ---------------


@pytest.mark.parametrize("spec", RESIDUAL_SPECS, ids=lambda spec: spec.describe())
@settings(max_examples=40)
@given(args=st.lists(nonzero_elements(max_terms=6, index_bound=3), min_size=3, max_size=3))
def test_tri_bracket_matches_the_rational_reference(spec, args):
    value = tri_bracket(spec, *args)
    assert value == oracles.tri_bracket(spec, *args)
    assert _canonical(value)


def test_a_patched_kernel_reaches_tri_bracket_through_the_scaled_spec(broken_kernel):
    # B = 2: the package reads the patched kernel of fk(1, const:1), the reference that of fk(1, const:1/2)
    spec = FKBracket(1, parse_beta("const:1/2"))
    args = (L(2) + M(0, Fraction(1, 3)), L(1) - L(-3, 2), M(0) + L(5, Fraction(-1, 5)))
    value = tri_bracket(spec, *args)
    assert value == oracles.tri_bracket(spec, *args)
    assert value.coefficient(brackets.BasisVector("L", 4)) == 1  # [L[2], L[1], M[0]] = 1/2 * (2 - 1) L[4], doubled
    assert _canonical(value)


@pytest.mark.parametrize("spec", [OMEGA, FKBracket(0, parse_beta("const:1/2"))], ids=lambda spec: spec.describe())
def test_the_oracles_run_without_the_package_loop(monkeypatch, spec):
    """With the shared loop broken, the package's element brackets raise and
    the oracles' element brackets, residuals and closures still run."""

    def broken(*args):
        raise AssertionError("the shared loop ran")

    monkeypatch.setattr(brackets, "_bracket_into", broken)
    rng = random.Random(4)
    tuples = [[random_element(rng, Window(-2, 2)) for _ in range(5)] for _ in range(3)]
    with pytest.raises(AssertionError, match="the shared loop ran"):
        tri_bracket(spec, *tuples[0][:3])
    with pytest.raises(AssertionError, match="the shared loop ran"):
        identity_residual(spec, FUNDAMENTAL_IDENTITY, tuples[0])
    assert any([oracles.tri_bracket(spec, *args[:3]) for args in tuples])
    assert not any([oracles.identity_residual(spec, FUNDAMENTAL_IDENTITY, args) for args in tuples])
    chain, _ = oracles.span_close(spec, tuples[0][:2], Window(-2, 2), MODE_DERIVED, 2)
    assert chain[0].dim == 2


@settings(max_examples=120)
@given(
    spec=st.sampled_from(RESIDUAL_SPECS),
    identity=st.sampled_from(RESIDUAL_IDENTITIES),
    args=st.lists(TUPLE_ELEMENTS, min_size=5, max_size=5),
)
def test_fused_residual_matches_the_reference(spec, identity, args):
    fused = identity_residual(spec, identity, args)
    assert fused == oracles.identity_residual(spec, identity, args)
    assert _canonical(fused)


def test_fused_residual_is_nonzero_on_truncated_identities():
    rng = random.Random(5)
    for spec in RESIDUAL_SPECS:
        for identity in RESIDUAL_IDENTITIES[3:]:
            tuples = ([random_element(rng, Window(-2, 2)) for _ in range(5)] for _ in range(50))
            args = next(args for args in tuples if identity_residual(spec, identity, args))
            fused = identity_residual(spec, identity, args)
            assert fused == oracles.identity_residual(spec, identity, args)
            assert _canonical(fused)


def _recording_kernel(calls):
    def closed(spec):
        kernel = closed_triple_fn(spec)

        def triple(a, b, c):
            calls.append((tuple(a), tuple(b), tuple(c)))
            return kernel(a, b, c)

        return triple

    return closed


@pytest.mark.parametrize("spec", RESIDUAL_SPECS, ids=lambda spec: spec.describe())
def test_fused_residual_calls_the_kernel_on_the_reference_triples(monkeypatch, spec):
    """The integer pass calls the kernel on exactly the triples the
    per-term reference calls it on, as often: every triple of every term,
    those without a rule too."""
    rules = brackets.bracket_rules(spec)[0]
    fused, reference = [], []
    rng = random.Random(2)
    for _ in range(20):
        args = [random_element(rng, Window(-2, 2)) for _ in range(5)]
        for identity in RESIDUAL_IDENTITIES[:3]:
            monkeypatch.setattr(brackets, "closed_triple_fn", _recording_kernel(fused))
            identity_residual(spec, identity, args)
            monkeypatch.setattr(brackets, "closed_triple_fn", _recording_kernel(reference))
            oracles.identity_residual(spec, identity, args)
    assert any(tuple(vec[0] for vec in call) not in rules for call in fused)
    assert Counter(fused) == Counter(reference)


@pytest.mark.parametrize(
    "check, window, samples, identities",
    [
        (check_fundamental_identity, Window(-3, 3), 100, (FUNDAMENTAL_IDENTITY,)),
        (module_axiom_check, Window(-2, 2), 25, (MODULE_IDENTITY_1, MODULE_IDENTITY_2)),
    ],
    ids=("fundamental", "module"),
)
def test_sampled_route_counts_match_the_reference(broken_kernel, check, window, samples, identities):
    """Under the broken kernel the sampled tuples fail too: a run's failures
    are its basis failures plus the reference's nonzero sampled residuals."""
    name = check(OMEGA, window).check
    basis = broken_kernel.pop(name)
    check(OMEGA, window, samples)
    rng, sampled = random.Random(0), 0
    for _ in range(samples):
        args = [random_element(rng, window) for _ in range(5)]
        sampled += sum(bool(oracles.identity_residual(OMEGA, identity, args)) for identity in identities)
    assert basis and sampled
    assert broken_kernel[name] == basis + sampled


def _ruleless_kernel(closed_triple_fn, pattern):
    """closed_triple_fn with a nonzero value on a family pattern that has no rule."""

    def closed(spec):
        kernel = closed_triple_fn(spec)

        def triple(a, b, c):
            if (a[0], b[0], c[0]) == pattern:
                return (1, "L", a[1] + b[1] + c[1])
            return kernel(a, b, c)

        return triple

    return closed


@pytest.mark.parametrize(
    "bracket, pattern",
    [("omega", ("L", "L", "L")), ("fk", ("L", "L", "L")), ("fk", ("L", "M", "M"))],
    ids=("omega-LLL", "fk-LLL", "fk-LMM"),
)
def test_ruleless_patterns_are_refused_before_any_sample(monkeypatch, capsys, bracket, pattern):
    """The grading check of the basis tables refuses a kernel that is
    nonzero on a pattern without a rule before any sampled tuple is
    bracketed."""
    monkeypatch.setattr(brackets, "closed_triple_fn", _ruleless_kernel(brackets.closed_triple_fn, pattern))
    sampled = []
    monkeypatch.setattr(brackets, "identity_residual", lambda *args: sampled.append(args))
    for check in ("fundamental-identity", "module-axioms"):
        argv = ["verify", check, "--bracket", bracket, "--window", "-1..1", "--samples", "5"]
        assert main(argv) == 2
        assert "breaks its grading" in capsys.readouterr().err
    assert sampled == []


def test_fused_residual_refuses_a_coefficient_outside_the_weight_bound(monkeypatch):
    # every nonzero coefficient of the scaled kernel becomes 1/3, so the
    # bracket's is 1/(3B), outside its weight's bound B; tri_bracket and the
    # sweep refuse it too
    def thirds(spec):
        kernel = closed_triple_fn(spec)

        def triple(a, b, c):
            res = kernel(a, b, c)
            return None if res is None else (Fraction(1, 3), *res[1:])

        return triple

    monkeypatch.setattr(brackets, "closed_triple_fn", thirds)
    for spec, text in (
        (OMEGA, "1/3 has a denominator that does not divide 1"),
        (FKBracket(1, parse_beta("const:1/2")), "1/6 has a denominator that does not divide 2"),
    ):
        with pytest.raises(ValueError, match=f"kernel coefficient {text}"):
            identity_residual(spec, FUNDAMENTAL_IDENTITY, [L(1), L(2), M(0), L(0), M(1)])
        with pytest.raises(ValueError, match=f"kernel coefficient {text}"):
            tri_bracket(spec, L(1), L(2), M(0))
        with pytest.raises(ValueError, match=f"kernel coefficient {text}"):
            check_fundamental_identity(spec, Window(-1, 1))


@pytest.mark.parametrize(
    "beta",
    [
        "const:2",
        "const:-3/4",
        "support:-1=1,2=-1/3",
        "support:0=5/6,3=7/10,-4=-2",
        "poly:1/2*t^2-1",
        "poly:1/6*t^3-1/4*t+2/3",
        "poly:3/7*t^5+1/3*t^2-5",
    ],
)
def test_weight_denominator_clears_beta(beta):
    f = parse_beta(beta)
    bound = f.denominator()
    assert type(bound) is int and bound >= 1
    for t in range(-20, 21):
        assert (f.beta(t) * bound).denominator == 1
