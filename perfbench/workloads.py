"""The four benchmark workloads: fixed lists of `trilie` CLI invocations.

Every invocation is run in process through `trilie.cli.main(argv)` with
`--format json --seed S` appended, S being the benchmark's `--seed`.
Option values that start with '-' are written as `--opt=value`, which the
CLI accepts unchanged, so the set-up probe can parse them with the public
`build_parser` alone.

Why each workload exists (see README.md for the per-layer predictions):

battery             the default report users run; its JSON is the
                    determinism gate; ~74% basis-tuple sweeps.
identity-sweep      the same sweeps under weights the battery never uses
                    (non-int constant, finite support, polynomial), so a
                    kernel rewrite that only helps int weights shows here.
operator-calculus   channel operators, CoeffFn/Poly and SpanSolver; zero
                    basis-triple calls, so a kernel change predicts no move.
structure-analysis  closures, ideals, weights, normalizers, Nambu
                    realizations: layers under 15% of the battery.
"""

from __future__ import annotations

import shlex

WORKLOADS = {
    "battery": (
        "report",
    ),
    "identity-sweep": (
        "verify fundamental-identity --bracket fk --k 1 --beta const:1/2 --window=-3..3 --samples 100",
        "verify fundamental-identity --bracket fk --k 0 --beta support:-1=1,2=-1/3 --window=-3..3 --samples 100",
        "verify module-axioms --bracket fk --k 2 --beta poly:1/2*t^2-1 --window=-2..2 --samples 25",
        "verify anticommutativity --bracket fk --k 1 --beta const:1/2 --window=-5..5",
    ),
    "operator-calculus": (
        "verify table-5-1 --window=-12..12",
        "verify sl2-laurent --window=-10..10",
        "verify section3-structure --bracket fk --k 0 --beta const:1 --window=-10..10",
        "verify section3-structure --bracket fk --k 1 --beta support:0=1,2=-1/3 --window=-10..10",
        "verify basis-independence --bracket omega --window=-12..12",
        "verify basis-independence --bracket fk --k 1 --beta support:0=1,2=-1/3 --window=-10..10",
        "verify witt-module --window=-12..12",
    ),
    "structure-analysis": (
        "analyze ideal-closure --bracket omega --window=-10..10",
        "analyze ideal-closure --bracket omega '--seed-element=L[1] + 2*M[-3] - 1/2*M[3]' --window=-8..8",
        "analyze ideal-closure --bracket fk '--seed-element=L[2] - M[1]' --window=-8..8",
        "analyze derived-series --bracket fk --window=-10..10",
        "analyze ideal-kinds --bracket fk --window=-8..8",
        "analyze weight-decomposition --bracket fk --k 0 --window=-9..9",
        "analyze center --bracket omega --k 1 --window=-8..8",
        "verify nambu-realization --bracket omega --window=-5..5",
        "verify nambu-realization --bracket fk --k 1 --beta const:1/2 --window=-5..5",
        "verify constructor-agreement --k 1 --beta poly:t^2+1 --window=-5..5",
        "analyze vandermonde --samples 60 --window=-6..6",
    ),
}


def argv_for(invocation: str, seed: int) -> list:
    """The argument list one invocation passes to `trilie.cli.main`."""
    return shlex.split(invocation) + ["--format", "json", "--seed", str(seed)]
