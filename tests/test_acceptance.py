"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Each test prints a single PASS/FAIL line (visible with `pytest -s`).
Criteria that verify content while correcting a printed formula are
expected to come back 'flagged'; flagged never counts as failure, and
the expected flag is asserted explicitly where it is part of the
criterion.
"""

import io
import json
import re
import sys
from pathlib import Path

from trilie import (
    OMEGA,
    ConstantFunctional,
    Element,
    FiniteSupportFunctional,
    FKBracket,
    FKRealization,
    L,
    M,
    OmegaRealization,
    PolynomialFunctional,
    window_basis,
)
from trilie.analysis import (
    MODE_DERIVED,
    ClosureTable,
    fk_cartan_pairs,
    ideal_check,
    ideal_closure_reaches_all,
    natural_module_decompose,
    omega_cartan_pairs,
    span_close,
    vandermonde_extract,
    weight_decompose,
)
from trilie.brackets import (
    check_anticommutativity,
    check_constructor_agreement,
    check_fundamental_identity,
    random_element,
)
from trilie.elements import check_structure_maps
from trilie.nambu import SymFunction, check_injectivity, check_realization, nambu_bracket
from trilie.relations import (
    verify_basis_independence,
    verify_section3_structure,
    verify_sl2_laurent,
    verify_table_5_1,
    witt_module_check,
)
from trilie.polys import T
from trilie.report import Window

ONE = ConstantFunctional(1)
BETAS = (ONE, PolynomialFunctional(T), FiniteSupportFunctional({0: 1, 2: -1}))


def _criterion(n: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n:2d}: {status}{suffix}")
    assert ok, f"criterion {n} failed{suffix}"


def test_criterion_01_fundamental_identity():
    w = Window(-3, 3)
    reports = [
        check_fundamental_identity(OMEGA, w, 100, seed=1),
        check_fundamental_identity(FKBracket(1, ONE), w, 100, seed=1),
    ]
    ok = all(r.status == "pass" for r in reports)
    ok = ok and all(r.stats["basis_tuples"] == 14**5 for r in reports)
    ok = ok and all(r.stats["sampled_tuples"] == 100 for r in reports)
    _criterion(1, ok, "exact residuals on 2 x 537824 basis 5-tuples + 100 sampled")


def test_criterion_02_anticommutativity():
    w = Window(-4, 4)
    reports = [
        check_anticommutativity(OMEGA, w),
        check_anticommutativity(FKBracket(1, ONE), w),
    ]
    ok = all(r.status == "pass" for r in reports)
    _criterion(2, ok, "all 6 permutations, all basis triples in -4..4, both brackets")


def test_criterion_03_constructor_agreement():
    w = Window(-4, 4)
    ok = True
    for k in (-1, 0, 1, 2):
        for beta in BETAS:
            rep = check_constructor_agreement(w, k, beta)
            ok = ok and rep.status == "pass"
    _criterion(3, ok, "functional and determinant routes, k in {-1,0,1,2}, three weight shapes")


def test_criterion_04_nambu_realization():
    w = Window(-3, 3)
    ok = True
    rep = check_realization(OmegaRealization(), w)
    ok = ok and rep.ok and not rep.counterexamples
    rep = check_realization(FKRealization(1, ONE), w)
    ok = ok and rep.ok and not rep.counterexamples
    flagged_sign = rep.status == "flagged"

    # determinant classes, term for term on the parameter grid
    def ze(r):
        return SymFunction.term(1, 0, 1, r)

    def ye(r):
        return SymFunction.term(1, 1, 0, r)

    for r in w.indices():
        for s in w.indices():
            for t in w.indices():
                ok = ok and nambu_bracket(ze(r), ze(s), ye(-t)) == ze(r + s - t).scale(s - r)
                ok = ok and nambu_bracket(ze(r), ye(-s), ye(-t)) == ye(-(s + t - r)).scale(t - s)
                ok = ok and nambu_bracket(ye(-r), ye(-s), ye(-t)).is_zero()
                ok = ok and nambu_bracket(ze(r), ze(s), ze(t)).is_zero()
                fk_det = nambu_bracket(ze(r), ze(s), ye(1).scale(-1))
                ok = ok and fk_det == ze(r + s + 1).scale(r - s)
    ok = ok and check_injectivity(OmegaRealization(), w).stats["kernel_dimension"] == 0
    ok = ok and check_injectivity(FKRealization(1, ONE), w).stats["kernel_dimension"] == 6
    _criterion(
        4,
        ok,
        "exact homomorphisms; kernel 0 and 6; printed M-image sign "
        + ("flagged" if flagged_sign else "NOT flagged"),
    )
    assert flagged_sign


def test_criterion_05_structure_maps():
    w = Window(-5, 5)
    ok = True
    flagged = False
    for k in (-1, 0, 1, 2):
        rep = check_structure_maps(w, k)
        ok = ok and rep.ok and not rep.counterexamples
        flagged = flagged or (
            rep.status == "flagged" and any("omega^2" in n for n in rep.notes)
        )
    _criterion(5, ok and flagged, "Leibniz, multiplicativity, anticommutation; omega^2=omega flagged")


def test_criterion_06_table_5_1():
    rep = verify_table_5_1(5)
    ok = rep.status == "pass" and rep.stats["corrections"] == 0
    for row in ("pp", "zx", "qx", "qz"):
        ok = ok and rep.stats.get(f"row_{row}") == "confirmed"
    _criterion(6, ok, "ten rows as exact operator identities, |r|,|s| <= 5, oracle-confirmed")


def test_criterion_07_section3_structure():
    w = Window(-5, 5)
    ok = True
    for k in (0, 1):
        rep = verify_section3_structure(k, ONE, 0, w)
        ok = ok and rep.ok and not rep.counterexamples
        ok = ok and rep.stats["invariant_subspaces"] == "none proper (window-exact)"
        ok = ok and rep.stats["branch_1_hits"] > 0 and rep.stats["branch_2_hits"] > 0
    _criterion(7, ok, "Witt relation, [X,X]=0, branch actions, no proper invariant subspace")


def test_criterion_08_simplicity_evidence():
    import random

    w = Window(-6, 6)
    rep = ideal_closure_reaches_all(ClosureTable(OMEGA, w))
    ok = rep.status == "pass"
    rng = random.Random(8)
    trials = 0
    while trials < 20:
        u = random_element(rng, w)
        if len(u.terms) != 4:
            continue
        trials += 1
        top = max(bv.index for bv in u.terms)
        extracted, vrep = vandermonde_extract(u, top + 1, 3)
        ok = ok and vrep.status == "pass" and len(extracted) == 4
    _criterion(8, ok, "26 basis seeds close to the full -6..6 span; 20 separations exact")


def test_criterion_09_non_solvability_and_hypo_nilpotency():
    w = Window(-5, 5)
    fk = FKBracket(1, ONE)
    seeds = [Element({bv: 1}) for bv in window_basis(w)]
    table = ClosureTable(fk, w)
    chain, rep = span_close(table, seeds, MODE_DERIVED, depth=8)
    l_lines = [L(r).support()[0] for r in w.indices()]
    ok = chain[1].basis_lines() == l_lines
    # stabilization makes the chain constant from step 1 on, covering s = 1..8
    ok = ok and rep.stats["stabilized_at"] >= 2 and chain[-1] == chain[1] and chain[1].dim > 0
    irep = ideal_check(table, [L(r) for r in w.indices()])
    for key in ("is_ideal", "nilpotent_as_algebra", "hypo_nilpotent", "minimality_evidence"):
        ok = ok and irep.stats[key] == "True"
    ok = ok and irep.stats["nilpotent_as_ideal"] == "False"
    _criterion(9, ok, "derived chain locks at span{L} != 0; span{L} hypo-nilpotent minimal ideal")


def test_criterion_10_representations():
    w = Window(-6, 6)
    deco, rep = weight_decompose(OMEGA, omega_cartan_pairs(), w)
    ok = rep.status == "pass" and set(deco.dims.values()) == {2}
    spaces = {wt[0]: labels for wt, labels in deco.spaces.items()}
    for t in w.indices():
        ok = ok and spaces[-t] == tuple(sorted((L(t).support()[0], M(-t).support()[0])))
    ndeco, nrep = natural_module_decompose(w)
    ok = ok and nrep.status == "pass" and ndeco.max_dim == 1 and len(ndeco.spaces) == 26
    growth = []
    for size in range(2, 7):
        win = Window(-size, size)
        fdeco, frep = weight_decompose(FKBracket(0, ONE), fk_cartan_pairs(win, 0), win)
        ok = ok and frep.status == "pass"
        growth.append(fdeco.zero_weight_dim())
    diffs = {b - a for a, b in zip(growth, growth[1:])}
    ok = ok and diffs == {2} and growth[0] == 6
    _criterion(10, ok, f"dim-2 spaces; dim-1 spaces; zero-weight growth {growth}")


def test_criterion_11_sl2_laurent_and_modules():
    ok = True
    rep = verify_sl2_laurent(5)
    ok = ok and rep.ok and not rep.counterexamples and rep.stats["pairs_checked"] == 9 * 121
    rep = verify_basis_independence("omega", Window(-4, 4))
    ok = ok and rep.status == "pass" and rep.stats["rank"] == 36
    w = Window(-5, 5)
    for i in (1, 2, 3):
        mrep = witt_module_check(i, w)
        ok = ok and mrep.ok and not mrep.counterexamples
        ok = ok and mrep.stats["weights_distinct"] == "True"
        # the literal action has exactly the index-0 trivial line (flagged),
        # and the regular-representation reading is window-irreducible
        ok = ok and any("trivial submodule" in n for n in mrep.notes)
        ok = ok and any("no proper invariant subspace" in n for n in mrep.notes)
    _criterion(11, ok, "loop-algebra homomorphism, rank 36, intermediate series + irreducibility search")


def test_criterion_12_determinism():
    from trilie.cli import main

    def run(args):
        buf = io.StringIO()
        old = sys.stdout
        sys.stdout = buf
        try:
            code = main(args)
        finally:
            sys.stdout = old
        return code, buf.getvalue()

    a = run(["report", "--format", "json", "--seed", "7"])
    b = run(["report", "--format", "json", "--seed", "7"])
    # the saved seed-0 battery, with only its "seed" fields moved to 7
    golden = (Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "battery-seed0.json").read_text(encoding="utf-8")
    golden = re.sub(r'"seed": 0(?=[,\n])', '"seed": 7', golden)
    ok = a == b and a[0] == 0 and a[1] == golden
    c = run(["verify", "fundamental-identity", "--window", "-2..2", "--samples", "40", "--seed", "3"])
    d = run(["verify", "fundamental-identity", "--window", "-2..2", "--samples", "40", "--seed", "3"])
    ok = ok and c == d
    _criterion(12, ok, "repeated runs byte-identical (full battery and single check) and equal to the golden battery")
