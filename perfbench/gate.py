"""Correctness gate: every invocation's output is checked before it counts.

An invocation fails on an exception, an unexpected exit status, an
unexpected verdict status on any report, a deterministic work count that
differs from the expected one, or, for the battery, output bytes that
differ from the golden copy.  Expectations are seed-independent (the
statuses and counts hold for every seed); the battery's golden copy was
saved at seed 0, and for another seed only its `"seed": 0` fields change.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
GOLDEN_PATH = HERE / "golden" / "battery-seed0.json"

# Report stats that count work done; a smaller window or fewer samples moves them.
COUNT_KEYS = (
    "basis_tuples",
    "sampled_tuples",
    "permutation_checks",
    "triples",
    "pairs_checked",
    "family_size",
    "rank",
    "chain_dims",
)

_SEED_FIELD = re.compile(r'"seed": 0(?=[,\n])')


def run_invocation(main, argv):
    """Run `main(argv)` in process; return (exit status, stdout, error or None)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = main(argv)
    except SystemExit as exc:
        return exc.code, buf.getvalue(), None
    except Exception as exc:  # a crash is an invocation failure, not a harness failure
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return status, buf.getvalue(), None


def summarize(doc: dict) -> list:
    """The checked part of a JSON report: check, status and work counts."""
    return [
        {
            "check": rep["check"],
            "status": rep["status"],
            "counts": {k: rep["stats"][k] for k in COUNT_KEYS if k in rep["stats"]},
        }
        for rep in doc["reports"]
    ]


def golden_battery(golden: str, seed: int) -> str:
    return _SEED_FIELD.sub(f'"seed": {seed}', golden)


class Gate:
    def __init__(self, expected: dict, golden: str):
        self.expected = expected
        self.golden = golden

    @classmethod
    def load(cls) -> "Gate":
        return cls(
            json.loads(EXPECTED_PATH.read_text()),
            GOLDEN_PATH.read_text(encoding="utf-8"),
        )

    def problems(self, workload: str, invocation: str, seed: int, status, out: str, error) -> list:
        """Every way this invocation's result departs from the expected one."""
        if error is not None:
            return [f"exception: {error}"]
        want = self.expected[workload][invocation]
        found = []
        if status != want["exit"]:
            found.append(f"exit status {status}, expected {want['exit']}")
        try:
            got = summarize(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            return found + [f"unreadable report: {exc}"]
        if len(got) != len(want["reports"]):
            found.append(f"{len(got)} reports, expected {len(want['reports'])}")
        for i, (g, w) in enumerate(zip(got, want["reports"])):
            if g != w:
                found.append(f"report {i}: {g}, expected {w}")
        if workload == "battery" and out != golden_battery(self.golden, seed):
            found.append("battery output differs from the golden copy")
        return found
