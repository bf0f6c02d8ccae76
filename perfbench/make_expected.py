"""Regenerate the gate's expectations from the current program, at seed 0.

    PYTHONPATH=src python3 perfbench/make_expected.py

Writes `expected.json` (exit status, report statuses and work counts of
every invocation) and `golden/battery-seed0.json` (the battery's exact
stdout).  Run it only when a report changes on purpose, and say so in
CHANGES.md: a benchmark whose expectations follow the program checks
nothing.
"""

from __future__ import annotations

import json

from gate import EXPECTED_PATH, GOLDEN_PATH, run_invocation, summarize
from workloads import WORKLOADS, argv_for


def main() -> None:
    from trilie.cli import main as cli_main

    expected = {}
    for workload, invocations in WORKLOADS.items():
        expected[workload] = {}
        for invocation in invocations:
            status, out, error = run_invocation(cli_main, argv_for(invocation, 0))
            if error is not None:
                raise SystemExit(f"{invocation}: {error}")
            expected[workload][invocation] = {
                "exit": status,
                "reports": summarize(json.loads(out)),
            }
            if workload == "battery":
                GOLDEN_PATH.parent.mkdir(exist_ok=True)
                GOLDEN_PATH.write_text(out, encoding="utf-8")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
