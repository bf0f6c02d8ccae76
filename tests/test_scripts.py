"""Smoke tests: the weight-growth script exits 0 on a small window; the
digest script prints each benchmark invocation's stdout hash, and
only the differing lines when it compares two checkouts; and those hashes
are pinned, whatever the string hash seed."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_weight_growth_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "weight_growth.py"), "3", "0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("half-window:"), proc.stdout


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
