"""One workload run, in the fresh process `run.py` starts for it.

A closed loop with one client and no threads: each invocation starts when
the previous one returns, and whole passes over the workload's invocations
repeat while the next pass is expected to end within `--seconds` (at least
one pass always runs).  A `hostspeed.SpeedSampler` interleaves reference
samples with the passes, so each pass time can be scaled to the host's
nominal speed.  Every invocation's output goes through the correctness
gate.  With `--trace 1`, one more pass runs with the tracer installed and
the sampler off, followed by the micro-benchmarks.  Prints one JSON object
on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from gate import Gate, run_invocation
from hostspeed import SpeedSampler, scale
from workloads import WORKLOADS, argv_for

MAX_REPORTED_FAILURES = 20


def run_pass(main, gate: Gate, workload: str, seed: int, sampler: SpeedSampler = None):
    """One pass: (seconds spent inside `main`, list of failed invocations).

    The seconds exclude the time the sampler's reference samples took.
    """
    wall = 0.0
    failures = []
    for invocation in WORKLOADS[workload]:
        argv = argv_for(invocation, seed)
        spent = sampler.spent if sampler else 0.0
        start = time.perf_counter()
        status, out, error = run_invocation(main, argv)
        wall += time.perf_counter() - start
        if sampler:
            wall -= sampler.spent - spent
        problems = gate.problems(workload, invocation, seed, status, out, error)
        if problems:
            failures.append({"invocation": invocation, "problems": problems})
    return wall, failures


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its children (ru_maxrss is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import trilie
    from trilie.cli import main

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(trilie.__file__).resolve().parent.parent != src:
        raise SystemExit(f"trilie was imported from {trilie.__file__}, not from {src}")
    gate = Gate.load()
    walls, scaled, failures = [], [], []
    begin = time.perf_counter()
    with SpeedSampler() as sampler:
        last = 0.0
        while not walls or time.perf_counter() - begin + last <= seconds:
            taken = len(sampler.samples)
            start = time.perf_counter()
            wall, failed = run_pass(main, gate, workload, seed, sampler)
            last = time.perf_counter() - start
            walls.append(wall)
            scaled.append(wall * scale(sampler.since(taken)))
            failures += failed
    result = {"walls": walls, "scaled_walls": scaled, "peak_rss_mib": peak_rss_mib()}
    passes = len(walls)
    if trace:
        from micro import micro_metrics
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
        try:
            traced_wall, failed = run_pass(main, gate, workload, seed)
        finally:
            tracer.remove()
        passes += 1
        failures += failed
        metrics = layer_metrics(tracer)
        metrics.update(micro_metrics())
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
        result["per_layer"] = metrics
        result["trace_table"] = tracer.table()
    result["attempted"] = passes * len(WORKLOADS[workload])
    result["failed"] = len(failures)
    result["failures"] = failures[:MAX_REPORTED_FAILURES]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
