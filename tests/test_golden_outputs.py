"""Full json stdout of checks the battery's golden report does not pin.

The battery runs the operator checks under ``const:1`` only; the first
invocations cover the finite-support (window-decided) and polynomial
(substituted) paths.  The structure analyses pin the ideal kinds of both
brackets, both weight decompositions with their normalizer reports, the
omega centers, the ideal closures of one multi-term seed under each
bracket and the constructor agreement under a polynomial weight; four
closures on asymmetric windows, one without index 0, pin the block
arithmetic of the closure tables under a negative k and a ``Fraction``
weight.  The
identity sweeps pin the benchmark's four ``identity-sweep`` invocations
and failing fundamental-identity, module-axioms and anticommutativity
sweeps under a changed omega row (the last on an asymmetric window, with
the report's cap lifted), so the counterexample texts and their order are
pinned too.  The operator
checks pin the benchmark's seven ``operator-calculus`` invocations, and
the failing table and sl2 checks under a sign-flipped q pin the
decomposition and commutator counterexample texts (the table's in full,
with the report's cap lifted).  Six more failing operator checks pin
their counterexample texts and their order in full: the Section 3
structure under a broken ``ad_x`` and under an fk row landing on M (every
[W, X] leaves the X span), the Witt-family modules under a sign-flipped
q, and the basis-independence checks under changed product rows,
including two omega rows whose X and Y reduction failures alternate.
Four failing weighted sweeps under a changed fk row pin every printed
kernel coefficient and sampled residual of a non-int weight, in full.
Two structure analyses under a row moved to the other family pin the
split of ideal-check escapes into boundary escapes and witnesses, and the
ideal closure of a multi-term seed.  Each is compared byte for byte with
a saved file.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from conftest import doubled_x_channel, sign_flipped_q
from trilie import relations
from trilie.cli import main
from trilie.operators import GENERATORS
from trilie.report import VerdictReport

GOLDEN = Path(__file__).resolve().parent / "golden"

INVOCATIONS = {
    "section3-fk-k1-support": "verify section3-structure --bracket fk --k 1 --beta support:0=1,2=-1/3 --window=-3..3",
    "basis-fk-k1-support": "verify basis-independence --bracket fk --k 1 --beta support:0=1,2=-1/3 --window=-3..3",
    "section3-fk-k2-poly": "verify section3-structure --bracket fk --k 2 --beta poly:t^2+1 --s0 1 --window=-3..3",
    "basis-fk-k0-poly": "verify basis-independence --bracket fk --k 0 --beta poly:1/2*t-1 --s0 1 --window=-3..3",
}

STRUCTURE_INVOCATIONS = {
    "ideal-kinds-fk": "analyze ideal-kinds --bracket fk --window=-4..4",
    "ideal-kinds-omega": "analyze ideal-kinds --bracket omega --window=-4..4",
    "weights-fk-k0": "analyze weight-decomposition --bracket fk --k 0",
    "weights-omega": "analyze weight-decomposition --bracket omega",
    "center-omega-k1": "analyze center --bracket omega --k 1",
    "ideal-closure-omega-multi": "analyze ideal-closure --bracket omega '--seed-element=L[1] + 2*M[-3] - 1/2*M[3]'",
    "ideal-closure-fk-multi": "analyze ideal-closure --bracket fk '--seed-element=L[2] - M[1]'",
    "constructor-agreement-k1-poly": "verify constructor-agreement --k 1 --beta poly:t^2+1",
    "derived-series-fk-k-2-support": "analyze derived-series --bracket fk --k -2 --beta support:0=1,2=-1/3 --window=-2..4",
    "derived-series-omega-asymmetric": "analyze derived-series --bracket omega --window=-2..4",
    "ideal-closure-omega-no-zero": "analyze ideal-closure --bracket omega --window=1..4",
    "ideal-kinds-fk-k3-half": "analyze ideal-kinds --bracket fk --k 3 --beta const:1/2 --window=-4..1",
}


SWEEP_INVOCATIONS = {
    "sweep-fi-fk-k1-half": "verify fundamental-identity --bracket fk --k 1 --beta const:1/2 --window=-3..3 --samples 100 --seed 0",
    "sweep-fi-fk-k0-support": "verify fundamental-identity --bracket fk --k 0 --beta support:-1=1,2=-1/3 --window=-3..3 --samples 100 --seed 0",
    "sweep-module-fk-k2-poly": "verify module-axioms --bracket fk --k 2 --beta poly:1/2*t^2-1 --window=-2..2 --samples 25 --seed 0",
    "sweep-anti-fk-k1-half": "verify anticommutativity --bracket fk --k 1 --beta const:1/2 --window=-5..5 --seed 0",
}

OPERATOR_INVOCATIONS = {
    "opcalc-table-5-1": "verify table-5-1 --window=-12..12 --seed 0",
    "opcalc-sl2-laurent": "verify sl2-laurent --window=-10..10 --seed 0",
    "opcalc-section3-fk-k0-one": "verify section3-structure --bracket fk --k 0 --beta const:1 --window=-10..10 --seed 0",
    "opcalc-section3-fk-k1-support": "verify section3-structure --bracket fk --k 1 --beta support:0=1,2=-1/3 --window=-10..10 --seed 0",
    "opcalc-basis-omega": "verify basis-independence --bracket omega --window=-12..12 --seed 0",
    "opcalc-basis-fk-k1-support": "verify basis-independence --bracket fk --k 1 --beta support:0=1,2=-1/3 --window=-10..10 --seed 0",
    "opcalc-witt-module": "verify witt-module --window=-12..12 --seed 0",
}

SIGN_FLIPPED_Q_INVOCATIONS = {
    "table-5-1-flipped-q": "verify table-5-1 --window=-3..3",
    "sl2-laurent-flipped-q": "verify sl2-laurent --window=-3..3",
}


def _assert_golden(name, invocation, status=0):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(invocation) + ["--format", "json"])
    assert code == status
    assert buf.getvalue() == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_weighted_operator_checks_match_golden_stdout(name):
    _assert_golden(name, INVOCATIONS[name])


@pytest.mark.parametrize("name", sorted(STRUCTURE_INVOCATIONS))
def test_structure_analyses_match_golden_stdout(name):
    _assert_golden(name, STRUCTURE_INVOCATIONS[name])


@pytest.mark.parametrize("name", sorted(SWEEP_INVOCATIONS))
def test_identity_sweeps_match_golden_stdout(name):
    _assert_golden(name, SWEEP_INVOCATIONS[name])


# the sweeps under weights with denominators, to be divided back into every text
PATCHED_SWEEP_INVOCATIONS = {
    "sweep-anti-fk-k1-half-patched": "verify anticommutativity --bracket fk --k 1 --beta const:1/2 --window=-2..2",
    "sweep-fi-fk-k1-half-patched": "verify fundamental-identity --bracket fk --k 1 --beta const:1/2 --window=-1..1 --samples 30",
    "sweep-fi-fk-k0-support-patched": "verify fundamental-identity --bracket fk --k 0 --beta support:-1=1,2=-1/3 --window=-1..1 --samples 30",
    "sweep-module-fk-k2-poly-patched": "verify module-axioms --bracket fk --k 2 --beta poly:1/2*t^2-1 --window=-1..1 --samples 10",
}


@pytest.mark.parametrize("name", sorted(PATCHED_SWEEP_INVOCATIONS))
def test_every_weighted_sweep_counterexample_matches_golden_stdout(name, monkeypatch, patch_row):
    patch_row("fk", 0, coef=(2, -1, 0))  # [L_r, L_s, M_t] = beta_t (2r - s) L_{r+s+k}
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    _assert_golden(name, PATCHED_SWEEP_INVOCATIONS[name], status=1)


def test_failing_fundamental_identity_sweep_matches_golden_stdout(patch_row):
    patch_row("omega", 0, coef=(-2, 1, 0))
    _assert_golden("fi-omega-patched-llm", "verify fundamental-identity --bracket omega --window=-2..2", status=1)


def test_failing_anticommutativity_and_module_sweeps_match_golden_stdout(monkeypatch, patch_row):
    # [L_r, L_s, M_t] = (s - 2r) L_{r+s-t} is not antisymmetric in r, s: the
    # permuted tables name the mismatches, in (triple, permutation) order
    patch_row("omega", 0, coef=(-2, 1, 0))
    _assert_golden("module-omega-patched-llm", "verify module-axioms --bracket omega --window=-1..1 --samples 10", 1)
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    _assert_golden("anti-omega-patched-llm-uncapped", "verify anticommutativity --bracket omega --window=-1..2", 1)


@pytest.mark.parametrize("name", sorted(OPERATOR_INVOCATIONS))
def test_operator_calculus_matches_golden_stdout(name):
    _assert_golden(name, OPERATOR_INVOCATIONS[name])


@pytest.mark.parametrize("name", sorted(SIGN_FLIPPED_Q_INVOCATIONS))
def test_failing_operator_checks_match_golden_stdout(name, monkeypatch):
    monkeypatch.setitem(GENERATORS, "q", sign_flipped_q)
    _assert_golden(name, SIGN_FLIPPED_Q_INVOCATIONS[name], status=1)


def test_every_table_counterexample_matches_golden_stdout(monkeypatch):
    # the first eight are decompositions; 42 of the 180 are commutators
    # off the p/q/x/z span, printed channel by channel
    monkeypatch.setitem(GENERATORS, "q", sign_flipped_q)
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    _assert_golden("table-5-1-flipped-q-uncapped", SIGN_FLIPPED_Q_INVOCATIONS["table-5-1-flipped-q"], status=1)


def _break_ad_x(monkeypatch, patch_row):
    monkeypatch.setattr(relations, "ad_x", doubled_x_channel(relations.ad_x))


def _flip_q(monkeypatch, patch_row):
    monkeypatch.setitem(GENERATORS, "q", sign_flipped_q)


def _break_llm_and_lmm(monkeypatch, patch_row):
    patch_row("omega", 0, coef=(-2, 1, 0))  # [L_r, L_s, M_t] = (s - 2r) L_{r+s-t}
    patch_row("omega", 1, coef=(1, -1, 1))  # [L_r, M_s, M_t] = (r - s + t) M_{s+t-r}


FAILING_OPERATOR_INVOCATIONS = {
    "section3-fk-k0-doubled-x": (
        _break_ad_x,
        "verify section3-structure --bracket fk --k 0 --beta const:1 --window=-3..3",
    ),
    "witt-module-flipped-q": (_flip_q, "verify witt-module --window=-2..2"),
    # [L_r, L_s, M_t] = (s - 2r) L_{r+s-t}
    "basis-omega-patched-llm": (
        lambda monkeypatch, patch_row: patch_row("omega", 0, coef=(-2, 1, 0)),
        "verify basis-independence --bracket omega --window=-3..3",
    ),
    # [L_r, L_s, M_t] = beta_t (r - s) L_{r+s+t+k}
    "basis-fk-moved-llm": (
        lambda monkeypatch, patch_row: patch_row("fk", 0, index=(1, 1, 1)),
        "verify basis-independence --bracket fk --window=-3..3",
    ),
    # the X and the Y reductions both fail, so their counterexamples alternate
    "basis-omega-patched-llm-lmm": (
        _break_llm_and_lmm,
        "verify basis-independence --bracket omega --window=-2..2",
    ),
    # [L_r, L_s, M_t] = beta_t (r - s) M_{r+s+k}: every [W, X] leaves the X span
    "section3-fk-k0-llm-on-m": (
        lambda monkeypatch, patch_row: patch_row("fk", 0, family="M"),
        "verify section3-structure --bracket fk --k 0 --window=-3..3",
    ),
}


@pytest.mark.parametrize("name", sorted(FAILING_OPERATOR_INVOCATIONS))
def test_every_operator_counterexample_matches_golden_stdout(name, monkeypatch, patch_row):
    breakage, invocation = FAILING_OPERATOR_INVOCATIONS[name]
    breakage(monkeypatch, patch_row)
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    _assert_golden(name, invocation, status=1)


FAILING_CLOSURE_INVOCATIONS = {
    # [L_r, L_s, M_t] = beta_t (r - s) M_{r+s+k}: span{L} is no ideal, and
    # the escapes of span{M} are M escapes
    "ideal-kinds-fk-llm-on-m": (
        ("fk", 0, "M"),
        "analyze ideal-kinds --bracket fk --window=-3..3",
    ),
    # [L_r, M_s, M_t] = (t - s) L_{s+t-r}
    "ideal-closure-omega-multi-lmm-on-l": (
        ("omega", 1, "L"),
        "analyze ideal-closure --bracket omega '--seed-element=L[1] + 2*M[-3] - 1/2*M[3]' --window=-3..3",
    ),
}


@pytest.mark.parametrize("name", sorted(FAILING_CLOSURE_INVOCATIONS))
def test_every_closure_counterexample_matches_golden_stdout(name, monkeypatch, patch_row):
    (bracket, row, family), invocation = FAILING_CLOSURE_INVOCATIONS[name]
    patch_row(bracket, row, family=family)
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    _assert_golden(name, invocation, status=1)
