"""Full json stdout of checks the battery's golden report does not pin.

The battery runs the operator checks under ``const:1`` only; the first
invocations cover the finite-support (window-decided) and polynomial
(substituted) paths.  The structure analyses pin the ideal kinds of both
brackets, both weight decompositions with their normalizer reports and
the omega centers.  Each is compared byte for byte with a saved file.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from trilie.cli import main

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
}


def _assert_golden(name, invocation):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(invocation) + ["--format", "json"])
    assert code == 0
    assert buf.getvalue() == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_weighted_operator_checks_match_golden_stdout(name):
    _assert_golden(name, INVOCATIONS[name])


@pytest.mark.parametrize("name", sorted(STRUCTURE_INVOCATIONS))
def test_structure_analyses_match_golden_stdout(name):
    _assert_golden(name, STRUCTURE_INVOCATIONS[name])
