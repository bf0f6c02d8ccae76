"""Smoke tests: the runnable experiments in scripts/ exit 0 on small inputs;
the table script reports each row's own status and fails with the table;
the digest script prints each benchmark invocation's stdout hash, and
only the differing lines when it compares two checkouts; and those hashes
are pinned, whatever the string hash seed."""

import hashlib
import os
import runpy
import subprocess
import sys

import pytest

from conftest import sign_flipped_q
from trilie.operators import GENERATORS

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize(
    "script, args, first_line",
    [
        ("rederive_tables.py", ["2", "1"], "p/q/x/z bracket rows, |r|,|s| <= 2:"),
        ("weight_growth.py", ["3", "0"], "half-window:"),
    ],
)
def test_script_runs(script, args, first_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(first_line), proc.stdout


def test_rederive_tables_reports_each_row_and_fails_with_the_table(monkeypatch, capsys):
    main = runpy.run_path(os.path.join(ROOT, "scripts", "rederive_tables.py"))["main"]
    monkeypatch.setitem(GENERATORS, "q", sign_flipped_q)
    monkeypatch.setattr(sys, "argv", ["rederive_tables.py", "2", "1"])
    assert main() == 1
    rows = capsys.readouterr().out.splitlines()[1:11]
    passed = [row.split(" =")[0].strip() for row in rows if row.endswith("[pass]")]
    assert passed == ["[p_r, p_s]", "[p_r, x_s]", "[p_r, z_s]", "[x_r, x_s]", "[z_r, z_s]"]
    assert sum(row.endswith("[fail]") for row in rows) == 5


def test_stdout_digest_prints_one_sha256_per_invocation():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import WORKLOADS, argv_for
    finally:
        sys.path.pop(0)
    from trilie.cli import run_command

    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "stdout_digest.py"), "--workload", "structure-analysis", "--seed", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    invocations = WORKLOADS["structure-analysis"]
    assert [line.split("  ", 4)[1:] for line in lines] == [
        ["0", "structure-analysis", "seed=3", inv] for inv in invocations
    ]
    status, out = run_command(argv_for(invocations[0], 3))
    assert lines[0].split()[0] == hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_stdout_digest_against_its_own_root_prints_nothing():
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "scripts", "stdout_digest.py"),
            *("--against", ROOT, "--workload", "identity-sweep", "--seed", "3"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_stdout_digests_match_golden(hash_seed):
    # every benchmark invocation at seeds 0 and 3; when a workload or an output
    # changes on purpose, regenerate with
    #   python scripts/stdout_digest.py > tests/golden/workload-digests.txt
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "stdout_digest.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "tests", "golden", "workload-digests.txt"), encoding="utf-8") as fh:
        assert proc.stdout == fh.read()
