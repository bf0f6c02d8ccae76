"""The integer residual of ``RelationSweep.run`` against the rational
decision of ``oracles.relation_holds``, visit by visit.

Every visit of the full sweep (the mirror plan emptied, so no visit is
decided by its mirror) is decided by the package on the integer forms of
both sides; the oracle decides it again over rationals, with the left side
from ``oracles.commutator`` (or the built operator of a one-tag group).
"""

import shlex
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from conftest import coefficient_degree
from test_relation_mirrors import GENERATOR_MUTATIONS, OPERATOR_CHECKS, WINDOWS, _full_sweep
from trilie.cli import run_command
from trilie.operators import GeneratorTable, Operator, gen_p
from trilie.relations import Case, Coef, RelationGroup, RelationSweep
from trilie.report import VerdictReport

R, S = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)


def _visits(invocations, monkeypatch) -> Counter:
    """Run the invocations on the full sweep and compare each visit's
    integer decision with the oracle's; returns what the visits covered."""
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    _full_sweep(monkeypatch)
    sweeps, mismatched = [], set()
    run, mismatch = RelationSweep.run, RelationSweep._mismatch

    def recording_run(self, sweep, interleave=False):
        sweeps.append((self, sweep))
        return run(self, sweep, interleave)

    def recording_mismatch(self, group, case, r, s, a, b):
        mismatched.add((id(self), id(group), a, b))
        return mismatch(self, group, case, r, s, a, b)

    monkeypatch.setattr(RelationSweep, "run", recording_run)
    monkeypatch.setattr(RelationSweep, "_mismatch", recording_mismatch)
    seen = Counter()
    for invocation in invocations:
        sweeps.clear()
        mismatched.clear()
        run_command(shlex.split(invocation) + ["--format", "json"])
        for sweep, entries in sweeps:
            gens, k, s0 = sweep.gens, sweep.k, sweep.s0
            for group, outer, inner in entries:
                for a in outer:
                    for b in inner:
                        r, s = (a, b) if group.order == "rs" else (b, a)
                        case = next((case for case in group.cases if case.holds(r, s, k, s0)), None)
                        if case is None or group.span_first and sweep.decompose(group, a, b) is None:
                            continue
                        if len(group.lhs) == 1:
                            lhs = gens.build(group.lhs[0], a, b)
                        else:
                            lhs = oracles.commutator(gens(group.lhs[0], a), gens(group.lhs[1], b))
                        holds = oracles.relation_holds(gens, case, lhs, r, s, k, s0, sweep.functional, sweep.window)
                        assert holds == ((id(sweep), id(group), a, b) not in mismatched), (invocation, group.lhs, a, b)
                        seen["holds" if holds else "fails"] += 1
                        seen["two terms"] += len(case.rhs) == 2
                        scale = sweep._value(case.scale, r, s)
                        seen["scale != 1"] += scale != 1
                        den = sweep.form(group, a, b)[0]
                        for coef, tag, index in case.rhs:  # the term's factor y = x * D / D_j
                            dj = gens(tag, *[sweep._value(Coef(1, (form,)), r, s) for form in index])._int_form()[0]
                            seen["fractional y"] += (Fraction(sweep._value(coef, r, s)) * den / dj).denominator > 1
    return seen


@pytest.mark.parametrize("mutation", sorted(GENERATOR_MUTATIONS))
@pytest.mark.parametrize("invocation", OPERATOR_CHECKS)
def test_the_integer_decision_is_the_rational_one(invocation, mutation, monkeypatch):
    GENERATOR_MUTATIONS[mutation](monkeypatch)
    seen = _visits([f"{invocation} --window={window}" for window in WINDOWS], monkeypatch)
    assert seen["holds"] > 0


def test_the_parity_visits_cover_fractions_scales_and_two_terms(monkeypatch):
    seen = _visits([
        "verify basis-independence --bracket omega --window=-3..3",
        "verify basis-independence --bracket fk --k 1 --beta support:0=1,2=-1/3 --window=-3..3",
        "verify section3-structure --bracket fk --k 1 --beta const:1 --window=-3..3",
    ], monkeypatch)
    assert min(seen[key] for key in ("two terms", "scale != 1", "fractional y")) > 0
    GENERATOR_MUTATIONS["doubled_x_channel"](monkeypatch)
    assert _visits(["verify section3-structure --bracket fk --k 1 --beta const:1 --window=-3..3"], monkeypatch)["fails"]


def _raised_p(r):  # every channel's coefficient degree raised by one
    return Operator({key[:7] + (key[7] + 1,): c for key, c in gen_p(r).terms.items()})


def test_an_agreeing_visit_still_fails_the_degree_check(monkeypatch):
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    # C(r, s) is [A_r, B_s] itself, so every visit agrees with its right side
    gens = GeneratorTable({"A": _raised_p, "B": gen_p, "C": lambda r, s: _raised_p(r).commutator(gen_p(s))})
    group = RelationGroup(("A", "B"), (Case(((Coef(), "C", (R, S)),), "[A_{r}, B_{s}] != C({r},{s})"),))
    labels = list(range(-2, 3))
    rep = VerdictReport("degree", {})
    sweep = RelationSweep(rep, gens, degree_fail="[{A}_{r}, {B}_{s}] has coefficient degree > 1")
    hits, misses = sweep.run([(group, labels, labels)])
    raised = [(r, s) for r in labels for s in labels if coefficient_degree(gens("C", r, s)) > 1]
    assert hits == [[25]] and misses == [0] and raised
    assert rep.counterexamples == [f"[A_{r}, B_{s}] has coefficient degree > 1" for r, s in raised]
