"""The mirror route of ``RelationSweep.run``: a visit (a, b) decided by its
mirror (b, a) through [B_b, A_a] = -[A_a, B_b].

The route must give the full sweep's report (every failure record and its
order, the hits, the flags) while building fewer commutators; the full
sweep is the same loop with the mirror plan emptied.
"""

import shlex
from fractions import Fraction

import pytest

from conftest import doubled_x_channel, sign_flipped_q
from trilie import operators, relations
from trilie.cli import run_command
from trilie.operators import GENERATORS, GeneratorTable
from trilie.relations import (
    SECTION3,
    SL2_LAURENT,
    TABLE_5_1,
    Case,
    Coef,
    RelationGroup,
    RelationSweep,
    mirrors,
)
from trilie.report import VerdictReport

# affine forms (r, s, k, s0, 1)
R, S, S0 = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0)
R_PLUS_S, R_MINUS_S, S_MINUS_R = (1, 1, 0, 0, 0), (1, -1, 0, 0, 0), (-1, 1, 0, 0, 0)

GENERATOR_MUTATIONS = {
    "intact": lambda m: None,
    "sign_flipped_q": lambda m: m.setitem(GENERATORS, "q", sign_flipped_q),
    "doubled_x_channel": lambda m: m.setattr(relations, "ad_x", doubled_x_channel(relations.ad_x)),
}

WINDOWS = [f"-{n}..{n}" for n in range(1, 7)] + ["2..4"]

OPERATOR_CHECKS = [
    "verify table-5-1",
    "verify sl2-laurent",
    *(
        f"verify section3-structure --bracket fk --k {k} --beta {beta}"
        for beta in ("const:1", "poly:t^2+1", "support:0=1,2=-1/3")
        for k in (0, 1, 2)
    ),
    "verify witt-module",
    "verify basis-independence --bracket omega",
    "verify basis-independence --bracket fk --k 1 --beta support:0=1,2=-1/3",
]


def _full_sweep(monkeypatch):
    monkeypatch.setattr(relations, "_mirror_plan", lambda sweep: {})


def _report(invocation: str, window: str) -> tuple:
    return run_command(shlex.split(invocation) + [f"--window={window}", "--format", "json"])


@pytest.mark.parametrize("mutation", sorted(GENERATOR_MUTATIONS))
@pytest.mark.parametrize("invocation", OPERATOR_CHECKS)
def test_the_mirror_route_reports_as_the_full_sweep(invocation, mutation, monkeypatch):
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    GENERATOR_MUTATIONS[mutation](monkeypatch)
    routed = [_report(invocation, window) for window in WINDOWS]
    _full_sweep(monkeypatch)
    assert [_report(invocation, window) for window in WINDOWS] == routed


@pytest.fixture
def commutators(monkeypatch):
    """The calls so far of the integer commutator kernel, which
    ``Operator.commutator`` and the sweep share."""
    calls = []
    kernel = operators.commutator_form

    def counting(a, b):
        calls.append(None)
        return kernel(a, b)

    monkeypatch.setattr(operators, "commutator_form", counting)
    monkeypatch.setattr(relations, "commutator_form", counting)
    return calls


# (invocation, commutators of the full sweep, commutators of the mirror route)
MIRRORED = [
    ("verify table-5-1 --window=-12..12", 6250, 4950),
    ("verify sl2-laurent --window=-10..10", 3969, 1953),
    ("verify section3-structure --bracket fk --k 0 --beta const:1 --window=-10..10", 1323, 861),
    ("verify section3-structure --bracket fk --k 1 --beta support:0=1,2=-1/3 --window=-10..10", 1323, 861),
]


@pytest.mark.parametrize(
    "invocation, full, routed", MIRRORED, ids=["table-5-1", "sl2-laurent", "section3-k0-const", "section3-k1-support"]
)
def test_the_mirror_route_skips_the_decided_commutators(invocation, full, routed, commutators, monkeypatch):
    argv = shlex.split(invocation) + ["--format", "json"]
    code, out = run_command(argv)
    assert code == 0 and len(commutators) == routed
    commutators.clear()
    _full_sweep(monkeypatch)
    assert run_command(argv) == (code, out) and len(commutators) == full


def test_a_true_row_off_mirror_symmetry_takes_the_full_sweep(commutators, monkeypatch):
    # r [p_r, p_s] = r (r-s) p_{r+s}: still true, but swapped its scale is s
    pp = TABLE_5_1[0]
    scaled = pp.cases[0]._replace(rhs=((Coef(1, (R, R_MINUS_S)), "p", (R_PLUS_S,)),), scale=Coef(1, (R,)))
    assert not mirrors(scaled, scaled)
    argv = ["verify", "table-5-1", "--window=-12..12", "--format", "json"]
    intact = run_command(argv)
    commutators.clear()
    monkeypatch.setattr(relations, "TABLE_5_1", (pp._replace(cases=(scaled,)),) + TABLE_5_1[1:])
    # the pp row makes all of its 25^2 commutators, the other rows as before
    assert run_command(argv) == intact and len(commutators) == 4950 + 325


def _sl2_group(t: str, u: str) -> RelationGroup:
    return next(group for group in SL2_LAURENT if group.lhs == (t, u))


def test_every_shipped_mirror_pair_is_accepted():
    for group in TABLE_5_1:
        if group.lhs[0] == group.lhs[1]:
            assert mirrors(group.cases[0], group.cases[0]), group.lhs
    for group in SL2_LAURENT:
        assert mirrors(group.cases[0], _sl2_group(*group.lhs[::-1]).cases[0]), group.lhs
    witt, xx = SECTION3[:2]
    assert mirrors(witt.cases[0], witt.cases[0])
    # the strata r, s != 0 and r = s = 0 mirror themselves, s = 0 and r = 0 each other
    for c, d in ((0, 0), (1, 2), (2, 1), (3, 3)):
        assert mirrors(xx.cases[c], xx.cases[d]), (c, d)


def test_an_affine_factor_may_carry_its_sign_in_the_constant():
    pp = TABLE_5_1[0].cases[0]  # (r-s) p_{r+s}
    assert mirrors(pp, pp._replace(rhs=((Coef(-1, (S_MINUS_R,)), "p", (R_PLUS_S,)),)))


def test_a_mirror_off_antisymmetry_is_rejected():
    pp = TABLE_5_1[0].cases[0]
    # not negated: [p_r, p_s] = (s-r) p_{r+s} read back at (s, r)
    assert not mirrors(pp, pp._replace(rhs=((Coef(1, (S_MINUS_R,)), "p", (R_PLUS_S,)),)))
    qx, xq = _sl2_group("q", "x").cases[0], _sl2_group("x", "q").cases[0]
    assert not mirrors(qx, xq._replace(rhs=qx.rhs))
    # a beta atom must swap with its form: beta(s) (r-s) W_{r+s} mirrors beta(r) (r-s) W_{r+s}
    weighted = Case(((Coef(1, (R_MINUS_S,), (S,)), "W", (R_PLUS_S,)),), "")
    assert mirrors(weighted, weighted._replace(rhs=((Coef(1, (R_MINUS_S,), (R,)), "W", (R_PLUS_S,)),)))
    assert not mirrors(weighted, weighted)
    assert not mirrors(weighted, weighted._replace(rhs=((Coef(1, (R_MINUS_S,), (S0,)), "W", (R_PLUS_S,)),)))
    # another scale
    assert not mirrors(pp, pp._replace(scale=Coef(2)))
    assert not mirrors(pp._replace(scale=Coef(1, (R,))), pp._replace(scale=Coef(1, (R,))))
    # another output tag: [q_r, x_s] = -2 x_{r+s} against [x_s, q_r] = 2 z_{r+s}, or another constant
    assert mirrors(qx, xq)
    assert not mirrors(qx, xq._replace(rhs=((Coef(2), "z", (R_PLUS_S,)),)))
    assert not mirrors(qx, xq._replace(rhs=((Coef(Fraction(3, 2)), "x", (R_PLUS_S,)),)))


def _swept(group: RelationGroup, labels: list) -> tuple:
    rep = VerdictReport("pp", {})
    hits, misses = RelationSweep(rep, GeneratorTable()).run([(group, labels, labels)])
    return hits, misses, rep.counterexamples


def test_a_visit_is_decided_only_by_a_mirror_in_a_deciding_case(monkeypatch, commutators):
    # [p_0, p_s] = -s p_s holds; the false (s-r) p_{r+s} elsewhere mirrors
    # itself but not the r = 0 stratum, so (a, 0) is checked although its
    # mirror (0, a) came earlier and passed
    group = RelationGroup(("p", "p"), (
        Case(((Coef(-1, (S,)), "p", (S,)),), "", eq=(R,)),
        Case(((Coef(1, (S_MINUS_R,)), "p", (R_PLUS_S,)),), "({r}, {s})"),
    ))
    labels = list(range(-3, 4))
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    routed = _swept(group, labels)
    # only the six diagonal commutators off r = 0 are skipped
    assert len(commutators) == 7 * 7 - 6
    _full_sweep(monkeypatch)
    assert _swept(group, labels) == routed
    assert routed[:2] == ([[7, 42]], [42 - 6]) and "(3, 0)" in routed[2]


def test_a_diagonal_visit_is_decided_only_in_a_self_mirrored_case(monkeypatch, commutators):
    # the false [p_r, p_r] = p_{2r} is mirrored by the off-diagonal
    # [p_r, p_s] = -p_{r+s}, but not by itself, so no visit is decided
    group = RelationGroup(("p", "p"), (
        Case(((Coef(), "p", (R_PLUS_S,)),), "({r}, {s})", eq=(R_MINUS_S,)),
        Case(((Coef(-1), "p", (R_PLUS_S,)),), "({r}, {s})"),
    ))
    assert mirrors(group.cases[1], group.cases[0]) and not mirrors(group.cases[0], group.cases[0])
    labels = list(range(-2, 3))
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    routed = _swept(group, labels)
    assert len(commutators) == 25
    _full_sweep(monkeypatch)
    assert _swept(group, labels) == routed
    # every diagonal fails, and the off-diagonal relation holds only at s = r + 1
    assert routed[:2] == ([[5, 20]], [5 + 20 - 4]) and "(0, 0)" in routed[2]
