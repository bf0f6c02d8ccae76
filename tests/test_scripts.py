"""Smoke tests: the runnable experiments in scripts/ exit 0 on small inputs."""

import os
import subprocess
import sys

import pytest

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
