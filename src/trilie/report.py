"""Windows, verdict reports and the configuration error.

A Window is the finite symmetric index truncation all exhaustive sweeps
run over.  A VerdictReport is the uniform result record every checker
produces: deterministic for a fixed configuration and seed, with exact
rationals rendered as strings (never floats).

Status semantics:
    pass    -- the claim was verified exactly on the window
    flagged -- the mechanical content was verified, but a printed source
               formula disagrees with the oracle; the corrected form is
               reported in the notes rather than silently substituted
    fail    -- an exact counterexample was found

A ConfigError is a fault in the configuration a check was given (a
malformed or empty window, a zero weight, an unusable option value); the
CLI reports it with exit status 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

PASS = "pass"
FAIL = "fail"
FLAGGED = "flagged"

_ORDER = {PASS: 0, FLAGGED: 1, FAIL: 2}


class ConfigError(ValueError):
    """A configuration fault: input that no check can run on."""


@dataclass(frozen=True)
class Window:
    """Inclusive index bounds applied to both basis families."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConfigError(f"empty window: {self.lo}..{self.hi}")

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def __contains__(self, idx: int) -> bool:
        return self.lo <= idx <= self.hi

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"

    @staticmethod
    def parse(text: str) -> "Window":
        lo, sep, hi = text.partition("..")
        try:
            bounds = int(lo), int(hi)
        except ValueError:
            sep = ""
        if not sep:
            raise ConfigError(f"window must look like 'lo..hi', got {text!r}")
        return Window(*bounds)


@dataclass
class VerdictReport:
    check: str
    params: dict
    status: str = PASS
    counterexamples: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    MAX_COUNTEREXAMPLES = 8

    def record_failure(self, description: Union[str, Callable[[], str]]) -> None:
        """Fail, and keep the counterexample while fewer than
        MAX_COUNTEREXAMPLES are kept; a callable description is called only
        then, so a check can leave the texts it would drop unwritten."""
        self.status = FAIL
        if len(self.counterexamples) < self.MAX_COUNTEREXAMPLES:
            self.counterexamples.append(description() if callable(description) else description)

    def flag(self, note: str) -> None:
        if self.status != FAIL:
            self.status = FLAGGED
        self.notes.append(note)

    def note(self, note: str) -> None:
        self.notes.append(note)

    def merge_status(self, other: "VerdictReport") -> None:
        if _ORDER[other.status] > _ORDER[self.status]:
            self.status = other.status

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "status": self.status,
            "counterexamples": list(self.counterexamples),
            "notes": list(self.notes),
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }

    def to_text(self) -> str:
        lines = [f"[{self.status.upper():7s}] {self.check}"]
        if self.params:
            kv = ", ".join(f"{k}={self.params[k]}" for k in sorted(self.params))
            lines.append(f"  params: {kv}")
        for ce in self.counterexamples:
            lines.append(f"  counterexample: {ce}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.stats:
            kv = ", ".join(f"{k}={self.stats[k]}" for k in sorted(self.stats))
            lines.append(f"  stats: {kv}")
        return "\n".join(lines)


def overall_status(reports) -> str:
    worst = PASS
    for r in reports:
        if _ORDER[r.status] > _ORDER[worst]:
            worst = r.status
    return worst
