"""The checkers that read the product rows, the generators or the
structure maps, each under a deliberately broken one: every such check
must fail.  ``center`` and ``weight-decomposition`` are the callers of
``linalg.null_space``, so their failures also guard the kernel solver."""

from trilie import elements
from trilie.analysis import natural_module_decompose
from trilie.cli import main
from trilie.elements import BasisVector, Element, check_structure_maps
from trilie.operators import GENERATORS, gen_p
from trilie.report import Window


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


def test_structure_maps_fail_under_an_unreflected_omega(monkeypatch, capsys):
    swap = {"L": "M", "M": "L"}

    def swap_only(u):
        return Element({BasisVector(swap[bv.family], bv.index): c for bv, c in u.terms.items()})

    monkeypatch.setattr(elements, "omega", swap_only)
    rep = check_structure_maps(Window(-2, 2))
    assert rep.status == "fail"
    assert "(delta*omega + omega*delta)(L[-2]) = -4*M[-2]" in rep.counterexamples
    assert _exit(["verify", "structure-maps"], capsys) == 1
