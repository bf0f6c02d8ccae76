"""The tabulated realization and constructor-agreement checks against the
per-triple oracles in ``oracles.py``: the whole report (status, stats,
notes, flags, counterexample text and order) must be the same, with the
product rows intact and under the broken rows of ``test_product_rows``.
Reports here keep every counterexample, so each failing triple counts."""

import pytest

import oracles
from trilie import OMEGA, FKBracket, FKRealization, OmegaRealization, brackets, nambu, parse_beta
from trilie.brackets import check_constructor_agreement
from trilie.nambu import check_realization
from trilie.report import VerdictReport, Window

WINDOW = Window(-3, 3)
WEIGHTS = ("const:1", "const:1/2", "support:0=1,2=-1/3", "poly:t^2+1")
KS = (-2, 0, 1)
BROKEN_ROWS = {
    "intact": None,
    # [L_r, M_s, M_t] = (s - t) M_{s+t-r}
    "negated omega lmm row": ("omega", 1, {"coef": (0, 1, -1)}),
    # [L_r, L_s, M_t] = beta_t (2r - s) L_{r+s+k}
    "shifted fk coefficient": ("fk", 0, {"coef": (2, -1, 0)}),
    # [L_r, L_s, M_t] = (s - 2r) L_{r+s-t}, nonzero where the Jacobian is zero
    "shifted omega llm coefficient": ("omega", 0, {"coef": (-2, 1, 0)}),
}


def _assert_same(got, want):
    assert got.to_dict() == want.to_dict()


@pytest.fixture(params=sorted(BROKEN_ROWS))
def rows(request, patch_row, monkeypatch):
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    broken = BROKEN_ROWS[request.param]
    if broken is not None:
        bracket, i, fields = broken
        patch_row(bracket, i, **fields)
    return request.param


def test_omega_realization_matches_the_oracle(rows):
    rmap = OmegaRealization()
    _assert_same(check_realization(rmap, OMEGA, WINDOW), oracles.check_realization(rmap, OMEGA, WINDOW))


@pytest.mark.parametrize("weight", WEIGHTS)
def test_fk_realization_matches_the_oracle(rows, weight):
    f = parse_beta(weight)
    for k in KS:
        rmap, spec = FKRealization(k, f), FKBracket(k, f)
        _assert_same(check_realization(rmap, spec, WINDOW), oracles.check_realization(rmap, spec, WINDOW))


@pytest.mark.parametrize("weight", WEIGHTS)
def test_constructor_agreement_matches_the_oracle(rows, weight):
    f = parse_beta(weight)
    for k in KS:
        _assert_same(
            check_constructor_agreement(WINDOW, k, f),
            oracles.check_constructor_agreement(WINDOW, k, f),
        )


def test_broken_rows_fail_with_counterexamples(rows):
    """The parity above compares failing reports too, not only passing ones."""
    f = parse_beta("const:1/2")
    reports = [
        check_realization(OmegaRealization(), OMEGA, WINDOW),
        check_realization(FKRealization(1, f), FKBracket(1, f), WINDOW),
        check_constructor_agreement(WINDOW, 1, f),
    ]
    statuses = [rep.status for rep in reports]
    if rows == "intact":
        assert statuses == ["pass", "flagged", "pass"]
    else:
        assert "fail" in statuses
        assert all(rep.counterexamples for rep in reports if rep.status == "fail")


def test_passing_checks_call_no_per_triple_route(monkeypatch):
    """The tables decide every triple; nambu_bracket and tri_bracket only
    write counterexample text, so a passing check calls neither."""
    def refuse(*args):
        raise AssertionError("a passing check took the per-triple route")

    monkeypatch.setattr(nambu, "nambu_bracket", refuse)
    monkeypatch.setattr(brackets, "tri_bracket", refuse)
    for weight in WEIGHTS:
        f = parse_beta(weight)
        for k in KS:
            assert check_realization(FKRealization(k, f), FKBracket(k, f), WINDOW).status == "flagged"
            assert check_constructor_agreement(WINDOW, k, f).status == "pass"
    assert check_realization(OmegaRealization(), OMEGA, WINDOW).status == "pass"
