"""Host speed reference: scales measured times to the host's nominal speed.

The benchmark's host is a shared VM whose CPU speed changes with the load
of other tenants, by up to about 1.8x, in phases from under a second to
several minutes.  Raw wall times therefore spread more between runs of the
same code than any change worth measuring.  To take that out, the
benchmark times a fixed unit of pure-standard-library work, `reference()`,
interleaved with the program, and reports each time scaled by the mean
of `REFERENCE_NOMINAL_S / reference time` over the samples taken
alongside it (`scale`).  The reference calls no `trilie` code, so a
change to the program moves only the measured time.

`SpeedSampler` interleaves the reference with a long call: a SIGALRM timer
runs one reference sample every `INTERVAL_S` seconds in the main thread,
between the program's bytecodes.  The time the samples take is kept in
`spent`, so that callers can subtract it from what they time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Roughly the median duration of one `reference()` on the 2-core Xeon VM
# the bounds were set on (0.45 to 0.85 ms there, with the host's speed).
# Only its constancy matters: it keeps the scaled times in seconds of the
# same order as the raw ones.
REFERENCE_NOMINAL_S = 0.7e-3
INTERVAL_S = 0.05


class _Term:
    __slots__ = ("coef", "index")

    def __init__(self, coef, index):
        self.coef = coef
        self.index = index

    def times(self, other: "_Term") -> "_Term":
        return _Term(self.coef + other.index, self.index)


def _work() -> int:
    """Small-object allocation, method calls, tuple building and a sort.

    Of the kernels tried (this one; dictionary and `Fraction` updates over
    a table; a pure integer loop; random reads of a large list), this one
    tracked the program's speed most closely through the host's phases:
    over 27 `structure-analysis` passes in six minutes, the scaled pass
    times spread 0.034 (interquartile range over median), against 0.05 to
    0.15 for the others and 0.19 raw.
    """
    term = _Term(0, 2)
    pairs = []
    for i in range(600):
        term = term.times(_Term(i, 1))
        pairs.append((term.coef % 13, i))
    pairs.sort()
    return pairs[0][1]


def reference() -> float:
    """Run one fixed unit of reference work; return the seconds it took.

    The cyclic garbage collector is held off meanwhile, so that the sample
    never pays for a collection of the program's objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(reference_samples: list) -> float:
    """The factor that turns a time measured alongside these samples into a nominal-speed time.

    The samples are spread evenly over the measured time, and the program's
    speed at each is proportional to 1 / sample.  So the nominal-speed time
    is the measured time times the mean of REFERENCE_NOMINAL_S / sample:
    a pass spent half in a slow phase and half in a fast one is scaled by
    the average of the two speeds.  A sample slowed by an interruption
    gets little weight.
    """
    return statistics.fmean(REFERENCE_NOMINAL_S / s for s in reference_samples)


class SpeedSampler:
    """Samples `reference()` every `INTERVAL_S` seconds while active."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._old_handler = None

    def _tick(self, signum, frame):
        took = reference()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedSampler":
        for _ in range(20):  # let the interpreter specialise the reference first
            reference()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def since(self, count: int) -> list:
        """The samples taken after the first `count`; at least one."""
        return self.samples[count:] or [reference()]
