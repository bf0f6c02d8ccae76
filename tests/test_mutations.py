"""The checkers that read the product rows, the generators, the structure
maps or the Jacobian's partials, each under a deliberately broken one:
every such check must fail.  ``center`` and ``weight-decomposition`` are
the callers of ``linalg.null_space``, so their failures also guard the
kernel solver.  The tabulated realization and constructor-agreement checks
read their inputs once per call, so they must also see the broken input
and give the per-triple oracle's report."""

import pytest

import oracles
from trilie import brackets, elements, nambu, parse_beta
from trilie.analysis import natural_module_decompose
from trilie.brackets import check_constructor_agreement
from trilie.cli import main
from trilie.elements import BasisVector, Element, check_structure_maps
from trilie.nambu import FKRealization, OmegaRealization, SymFunction, check_realization
from trilie.operators import GENERATORS, gen_p
from trilie.report import VerdictReport, Window

HALF = parse_beta("const:1/2")


def _exit(argv, capsys):
    code = main([*argv, "--window", "-3..3"])
    capsys.readouterr()
    return code


def test_center_and_basis_independence_fail_under_a_shifted_omega_llm_row(patch_row, capsys):
    # [L_r, L_s, M_t] = (s - 2r) L_{r+s-t}
    patch_row("omega", 0, coef=(-2, 1, 0))
    for argv in (
        ["analyze", "center", "--bracket", "omega", "--k", "1"],
        ["verify", "basis-independence", "--bracket", "omega"],
    ):
        assert _exit(argv, capsys) == 1, argv


def test_omega_weight_decomposition_fails_under_a_moved_lmm_index(patch_row, capsys):
    # [L_r, M_s, M_t] = (t - s) M_{s-r}
    patch_row("omega", 1, index=(-1, 1, 0))
    assert _exit(["analyze", "weight-decomposition", "--bracket", "omega"], capsys) == 1


def test_fk_checkers_fail_under_a_moved_llm_index(patch_row, capsys):
    # [L_r, L_s, M_t] = beta_t (r - s) L_{r+s+t+k}
    patch_row("fk", 0, index=(1, 1, 1))
    for argv in (
        ["analyze", "weight-decomposition", "--bracket", "fk", "--k", "0"],
        ["verify", "basis-independence", "--bracket", "fk"],
    ):
        assert _exit(argv, capsys) == 1, argv


def test_fk_ideal_kinds_fail_under_an_llm_row_landing_on_m(patch_row, capsys):
    # [L_r, L_s, M_t] = beta_t (r - s) M_{r+s+k}: span{L} is no ideal, span{M} is one
    patch_row("fk", 0, family="M")
    assert _exit(["analyze", "ideal-kinds", "--bracket", "fk"], capsys) == 1


def test_multi_term_ideal_closure_fails_under_an_lmm_row_landing_on_l(patch_row, capsys):
    # [L_r, M_s, M_t] = (t - s) L_{s+t-r}: no bracket reaches an M line
    patch_row("omega", 1, family="L")
    seed = "L[1] + 2*M[-3] - 1/2*M[3]"
    argv = ["analyze", "ideal-closure", "--bracket", "omega", "--seed-element", seed]
    assert _exit(argv, capsys) == 1


def test_vandermonde_fails_under_a_negated_omega_lmm_row(patch_row, capsys):
    # [L_r, M_s, M_t] = (s - t) M_{s+t-r}
    patch_row("omega", 1, coef=(0, 1, -1))
    assert _exit(["analyze", "vandermonde"], capsys) == 1


def test_natural_module_reads_the_patched_generators(monkeypatch, capsys):
    # with p in place of q the joint weights are p_0's alone, so L[s] and M[s] share one
    monkeypatch.setitem(GENERATORS, "q", gen_p)
    _, rep = natural_module_decompose(Window(-2, 2))
    assert rep.status == "fail"
    assert "a joint eigenspace has dimension 2 > 1" in rep.counterexamples
    assert _exit(["verify", "natural-module"], capsys) == 1


def test_natural_module_fails_when_p0_is_not_diagonal(monkeypatch, capsys):
    # p_1 in place of p_0 moves every index: no basis vector is an eigenvector,
    # and the spaces of the coefficients read on the diagonal are still built
    monkeypatch.setitem(GENERATORS, "p", lambda r: gen_p(r + 1))
    deco, rep = natural_module_decompose(Window(-2, 2))
    assert rep.status == "fail"
    assert rep.counterexamples[:2] == ["p_0/q_0 not diagonal on L[-2]", "p_0/q_0 not diagonal on L[-1]"]
    assert all(text.startswith("p_0/q_0 not diagonal on ") for text in rep.counterexamples)
    assert rep.stats == {"weight_spaces": 2, "max_dim": 5} and deco.max_dim == 5
    assert _exit(["verify", "natural-module"], capsys) == 1


def swap_only(u):
    """omega without the index reflection: L[r] <-> M[r]."""
    swap = {"L": "M", "M": "L"}
    return Element({BasisVector(swap[bv.family], bv.index): c for bv, c in u.terms.items()})


def test_structure_maps_fail_under_an_unreflected_omega(monkeypatch, capsys):
    monkeypatch.setattr(elements, "omega", swap_only)
    rep = check_structure_maps(Window(-2, 2))
    assert rep.status == "fail"
    assert "(delta*omega + omega*delta)(L[-2]) = -4*M[-2]" in rep.counterexamples
    assert _exit(["verify", "structure-maps"], capsys) == 1


def _realizations_fail_as_the_oracle(monkeypatch, capsys):
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    window = Window(-2, 2)
    for rmap in (OmegaRealization(), FKRealization(1, HALF)):
        rep = check_realization(rmap, window)
        assert rep.status == "fail", rmap
        assert rep.to_dict() == oracles.check_realization(rmap, window).to_dict()
    for bracket in ("omega", "fk"):
        assert _exit(["verify", "nambu-realization", "--bracket", bracket], capsys) == 1, bracket


def test_nambu_realization_reads_the_patched_partial(monkeypatch, capsys):
    # d/dx drops its factor r.  (Dropping the factor a of d/dy would change
    # nothing: every image has degree at most 1 in y.)
    partial = nambu.partial

    def partial_without_r(var, g):
        if var != "x":
            return partial(var, g)
        return SymFunction({key: c for key, c in g.terms.items() if key[2]})

    monkeypatch.setattr(nambu, "partial", partial_without_r)
    _realizations_fail_as_the_oracle(monkeypatch, capsys)


def test_nambu_realization_refuses_a_stray_partial_term(monkeypatch, capsys):
    # d/dz gains a y-term, so no Jacobian row is one monomial at its offset:
    # the tabulated determinant does not apply, and that is an internal error
    partial = nambu.partial

    def partial_with_stray_term(var, g):
        out = partial(var, g)
        return out + SymFunction.term(1, 1, 0, 0) if var == "z" and g else out

    monkeypatch.setattr(nambu, "partial", partial_with_stray_term)
    with pytest.raises(ValueError, match="is not one monomial"):
        check_realization(OmegaRealization(), Window(-2, 2))
    assert main(["verify", "nambu-realization", "--window", "-2..2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("trilie: internal error: ValueError: d/dz of ")
    assert "Traceback" not in err


def test_nambu_realization_fails_under_the_printed_m_image(monkeypatch, capsys):
    def printed_image(self, bv):
        if bv.family == "L":
            return SymFunction.term(1, 0, 1, bv.index)
        beta = self.functional.beta(bv.index)
        return SymFunction.term(beta, 1, 0, self.k) if beta else SymFunction.zero()

    monkeypatch.setattr(FKRealization, "image", printed_image)
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    rmap, window = FKRealization(1, HALF), Window(-2, 2)
    rep = check_realization(rmap, window)
    assert rep.status == "fail"
    assert rep.to_dict() == oracles.check_realization(rmap, window).to_dict()
    assert _exit(["verify", "nambu-realization", "--bracket", "fk"], capsys) == 1


def _constructor_agreement_fails_as_the_oracle(monkeypatch, capsys):
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    window = Window(-2, 2)
    rep = check_constructor_agreement(window, 1, HALF)
    assert rep.status == "fail"
    assert rep.to_dict() == oracles.check_constructor_agreement(window, 1, HALF).to_dict()
    assert _exit(["verify", "constructor-agreement"], capsys) == 1


def test_constructor_agreement_fails_under_an_unreflected_omega(monkeypatch, capsys):
    monkeypatch.setattr(brackets, "omega", swap_only)
    _constructor_agreement_fails_as_the_oracle(monkeypatch, capsys)


def test_constructor_agreement_fails_under_a_doubled_d_k(monkeypatch, capsys):
    # d_k(L_r) = 2r L_{k+r}; a shift such as (r + 1) would cancel in the bracket
    def doubled_d_k(k, u):
        return Element({
            BasisVector("L", k + r): 2 * r * c for (fam, r), c in u.terms.items() if fam == "L"
        })

    monkeypatch.setattr(brackets, "d_k", doubled_d_k)
    _constructor_agreement_fails_as_the_oracle(monkeypatch, capsys)
