"""Self-tests of the benchmark: its correctness gate can fail, its tracer
leaves the program as it found it, and its metric names match BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import trilie.analysis  # noqa: E402
import trilie.brackets  # noqa: E402
from gate import Gate, golden_battery, run_invocation  # noqa: E402
from hostspeed import REFERENCE_NOMINAL_S, SpeedSampler, scale  # noqa: E402
from micro import micro_metrics  # noqa: E402
from tracer import Tracer, install, layer_metrics  # noqa: E402
from trilie.cli import main  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import WORKLOADS, argv_for  # noqa: E402

ANTICOMMUTATIVITY = "verify anticommutativity --bracket fk --k 1 --beta const:1/2 --window=-5..5"


@pytest.fixture(scope="module")
def gate():
    return Gate.load()


def printing(text: str, status: int = 0):
    """A stand-in for `trilie.cli.main` that prints a fixed report."""

    def fake_main(argv):
        print(text, end="")
        return status

    return fake_main


def failed_ratio(failures, workload: str) -> float:
    return len(failures) / len(WORKLOADS[workload])


def test_golden_battery_passes_on_every_seed(gate):
    for seed in (0, 7):
        _, failures = run_pass(printing(golden_battery(gate.golden, seed)), gate, "battery", seed)
        assert failures == []


@pytest.mark.parametrize(
    "old, new",
    [
        ('"status": "pass"', '"status": "fail"'),
        ('"basis_tuples": 537824', '"basis_tuples": 537823'),
        ('"window": "-3..3"', '"window": "-2..2"'),
    ],
)
def test_changed_battery_report_counts_as_failed(gate, old, new):
    changed = gate.golden.replace(old, new, 1)
    assert changed != gate.golden
    _, failures = run_pass(printing(changed), gate, "battery", 0)
    assert failed_ratio(failures, "battery") > 0


def test_changed_status_or_count_fails_without_golden(gate):
    inv = ANTICOMMUTATIVITY
    report = {"check": "anticommutativity", "status": "pass", "stats": {"permutation_checks": 53240}}
    ok = json.dumps({"reports": [report]})
    assert gate.problems("identity-sweep", inv, 0, 0, ok, None) == []
    for stats, status, exit_status in (
        ({"permutation_checks": 53239}, "pass", 0),
        ({"permutation_checks": 53240}, "fail", 0),
        ({"permutation_checks": 53240}, "pass", 1),
    ):
        doc = json.dumps({"reports": [dict(report, stats=stats, status=status)]})
        assert gate.problems("identity-sweep", inv, 0, exit_status, doc, None)
    assert gate.problems("identity-sweep", inv, 0, None, "", "ValueError: boom")


def sign_flipped(closed_triple_fn):
    """The basis kernel with the sign of every bracket led by an M vector flipped."""

    def flipped_fn(spec):
        kernel = closed_triple_fn(spec)

        def triple(a, b, c):
            res = kernel(a, b, c)
            if res is None or a[0] != "M":
                return res
            coef, fam, idx = res
            return -coef, fam, idx

        return triple

    return flipped_fn


def test_sign_flipped_kernel_counts_as_failed(gate, monkeypatch):
    monkeypatch.setitem(WORKLOADS, "identity-sweep", (ANTICOMMUTATIVITY,))
    _, failures = run_pass(main, gate, "identity-sweep", 0)
    assert failures == []
    flipped = sign_flipped(trilie.brackets.closed_triple_fn)
    monkeypatch.setattr(trilie.brackets, "closed_triple_fn", flipped)
    monkeypatch.setattr(trilie.analysis, "closed_triple_fn", flipped)
    _, failures = run_pass(main, gate, "identity-sweep", 0)
    assert failed_ratio(failures, "identity-sweep") > 0
    assert any("status" in problem for problem in failures[0]["problems"])


def test_scale_averages_the_speeds_over_the_samples():
    assert scale([REFERENCE_NOMINAL_S] * 3) == pytest.approx(1.0)
    # Half the time at nominal speed, half at half speed: 3/4 of the work done.
    assert scale([REFERENCE_NOMINAL_S, 2 * REFERENCE_NOMINAL_S]) == pytest.approx(0.75)


def test_sampler_time_is_not_counted_and_the_timer_is_restored(gate):
    def busy_main(argv):
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        print(json.dumps({"reports": []}), end="")
        return 0

    handler = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        taken = len(sampler.samples)
        wall, _ = run_pass(busy_main, gate, "battery", 0, sampler)
    assert len(sampler.since(taken)) >= 5
    assert sampler.spent > 0.004
    assert wall == pytest.approx(0.5 - sampler.spent, abs=0.003)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _snapshot():
    import trilie.cli
    import trilie.linalg
    import trilie.operators
    import trilie.polys

    owners = [m for name, m in sys.modules.items() if name == "trilie" or name.startswith("trilie.")]
    owners += [trilie.cli.CHECKS, trilie.polys.Poly, trilie.operators.Operator, trilie.linalg.SpanSolver]
    return {
        (id(owner), key): value
        for owner in owners
        for key, value in (owner if isinstance(owner, dict) else vars(owner)).items()
    }


def test_tracer_counts_and_restores(gate):
    before = _snapshot()
    tracer = Tracer()
    install(tracer)
    try:
        argv = argv_for("verify nambu-realization --bracket omega --window=-2..2", 0)
        status, out, error = run_invocation(main, argv)
    finally:
        tracer.remove()
    assert (status, error) == (0, None)
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    metrics = layer_metrics(tracer)
    assert metrics["cli.check.nambu-realization.wall_s"][0] > 0
    assert metrics["brackets.basis_triple.calls"][0] > 0
    assert metrics["nambu.nambu_bracket.calls"][0] > 0
    assert 0 < metrics["brackets.basis_triple.nonzero_ratio"][0] < 1
    for row in tracer.table():
        assert 0 <= row["self_s"] <= row["total_s"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = dict(layer_metrics(Tracer()))
    per_layer.update(micro_metrics())
    per_layer["trace.overhead_s"] = (0.0, "s")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in per_layer.items()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        ("wall_s", "s"),
        ("peak_rss_mib", "MiB"),
        ("setup_s", "s"),
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
