#!/usr/bin/env python3
"""Digest of every benchmark invocation's json stdout.

Runs each invocation of the benchmark's workloads (``perfbench/workloads.py``,
read as it is) in process, at each seed, exactly as the benchmark passes it
to the CLI, and prints one line per run:

    <sha256 of stdout>  <exit status>  <workload>  seed=<S>  <invocation>

Two checkouts print the same lines exactly when every stdout is byte-identical,
so comparing a change with its parent is one ``diff``:

    python scripts/stdout_digest.py --root ../parent > parent.txt
    python scripts/stdout_digest.py > change.txt
    diff parent.txt change.txt

Usage: python scripts/stdout_digest.py [--root DIR] [--workload W] [--seed S ...]
``--root`` is the checkout to run (default: the one holding this script).
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="checkout whose src/ and perfbench/ run")
    parser.add_argument("--workload", help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, nargs="+", default=[0, 3], help="seeds (default: 0 3)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from trilie.cli import run_command
    from workloads import WORKLOADS, argv_for

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        for seed in args.seed:
            for invocation in WORKLOADS[name]:
                status, out = run_command(argv_for(invocation, seed))
                digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
                print(f"{digest}  {status}  {name}  seed={seed}  {invocation}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
