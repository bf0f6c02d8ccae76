"""Full json stdout of the operator checks under weights other than const:1.

The battery's golden report runs the operator checks under ``const:1``
only; these invocations cover the finite-support (window-decided) and
polynomial (substituted) paths, compared byte for byte with saved files.
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


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_weighted_operator_checks_match_golden_stdout(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(INVOCATIONS[name]) + ["--format", "json"])
    assert code == 0
    assert buf.getvalue() == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
