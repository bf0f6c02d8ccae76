"""The trilie benchmark: end-to-end and per-layer metrics of the `trilie` CLI.

Run from the root of a source checkout (the package need not be installed):

    python3 perfbench/run.py                     # every workload, untraced then traced
    python3 perfbench/run.py --workload battery --seed 3 --seconds 20 --trace 0

Each workload run happens in one fresh Python process (`worker.py`) that
drives `trilie.cli.main(argv)` in process with `PYTHONPATH=src`.  The last
line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  Without `--workload`, every workload
runs both ways, one table row per workload is printed, and the results are
saved in `perfbench/out/` (`end_to_end.json` and, beside it,
`per_layer.json` with the traced run's per-layer table).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, argv_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 10
RUN_TIMEOUT_S = 170
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def python(args: list, timeout: float) -> str:
    """Run a fresh Python process on the source tree; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(args[0]).name} took longer than {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def setup_samples(workload: str, seed: int, count: int) -> list:
    """Set-up times of the workload's first invocation, each in a fresh process
    and scaled to the host's nominal speed."""
    probe = [str(HERE / "setup_probe.py"), *argv_for(WORKLOADS[workload][0], seed)]
    return [float(python(probe, 60).split()[0]) for _ in range(count)]


def tail(samples: list):
    """(percentile, value) of the highest percentile with ten samples beyond it, or None."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return 100 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    worker = [
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    if trace:
        res = json.loads(python(worker, RUN_TIMEOUT_S).strip().splitlines()[-1])
        metrics = res["per_layer"]
    else:
        # Half the set-up samples run before the workload and half after it,
        # so that one phase of a noisy host does not decide their median.
        # The first sample writes bytecode caches and is not counted.
        setup = setup_samples(workload, seed, SETUP_SAMPLES // 2 + 1)[1:]
        res = json.loads(python(worker, RUN_TIMEOUT_S).strip().splitlines()[-1])
        setup += setup_samples(workload, seed, SETUP_SAMPLES - len(setup))
        metrics = {
            "wall_s": (statistics.median(res["scaled_walls"]), "s"),
            "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    res["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    res["workload"] = workload
    return res


def result_line(runs: list, prefix: bool) -> str:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {}
    for r in runs:
        for name, metric in r["metrics"].items():
            metrics[f"{r['workload']}.{name}" if prefix else name] = metric
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def print_end_to_end(runs: list) -> None:
    print(
        f"{'workload':<20}{'wall_s median (s)':>19}{'wall_s tail (s)':>22}{'passes':>8}"
        f"{'raw wall median (s)':>21}{'peak_rss_mib (MiB)':>20}{'setup_s (s)':>13}"
        f"{'failed_ratio (ratio)':>22}"
    )
    for r in runs:
        m = r["metrics"]
        t = tail(r["scaled_walls"])
        tail_text = f"p{t[0]:.0f} {t[1]:.4f}" if t else f"n/a, n<={TAIL_BEYOND}"
        print(
            f"{r['workload']:<20}{m['wall_s']['value']:>19.4f}{tail_text:>22}{len(r['walls']):>8}"
            f"{statistics.median(r['walls']):>21.4f}{m['peak_rss_mib']['value']:>20.2f}"
            f"{m['setup_s']['value']:>13.4f}{r['failed'] / r['attempted']:>22.4f}"
        )


def print_per_layer(runs: list) -> None:
    names = list(runs[0]["metrics"])
    print(f"{'per-layer metric':<44}{'unit':<7}" + "".join(f"{r['workload']:>20}" for r in runs))
    for name in names:
        unit = runs[0]["metrics"][name]["unit"]
        cells = "".join(f"{r['metrics'][name]['value']:>20.6g}" for r in runs)
        print(f"{name:<44}{unit:<7}{cells}")


def print_failures(runs: list) -> None:
    for r in runs:
        for failure in r["failures"]:
            print(f"FAILED {r['workload']}: {failure['invocation']}")
            for problem in failure["problems"]:
                print(f"    {problem}")


def run_all(seed: int, seconds: float) -> list:
    plain = [run_workload(w, seed, seconds, False) for w in WORKLOADS]
    traced = [run_workload(w, seed, seconds, True) for w in WORKLOADS]
    print_end_to_end(plain)
    print()
    print_per_layer(traced)
    print_failures(plain + traced)
    OUT.mkdir(exist_ok=True)
    (OUT / "end_to_end.json").write_text(
        json.dumps(
            {
                r["workload"]: {
                    "metrics": r["metrics"],
                    "pass_walls_s": r["scaled_walls"],
                    "raw_pass_walls_s": r["walls"],
                    "attempted": r["attempted"],
                    "failed": r["failed"],
                    "failed_ratio": r["failed"] / r["attempted"],
                }
                for r in plain
            },
            indent=1,
        )
    )
    (OUT / "per_layer.json").write_text(
        json.dumps(
            {r["workload"]: {"metrics": r["metrics"], "trace_table": r["trace_table"]} for r in traced},
            indent=1,
        )
    )
    print(f"saved {OUT / 'end_to_end.json'} and {OUT / 'per_layer.json'}")
    return plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trilie benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trilie" / "cli.py").is_file():
        print(f"perfbench: no trilie source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            runs = run_all(args.seed, args.seconds)
            line = result_line(runs, prefix=True)
        else:
            run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            runs = [run]
            if args.trace:
                print_per_layer(runs)
            else:
                print_end_to_end(runs)
            print_failures(runs)
            line = result_line(runs, prefix=False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(line)
    return 0 if all(r["failed"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
