#!/usr/bin/env python3
"""Digest of every benchmark invocation's json stdout.

Runs each invocation of the benchmark's workloads (``perfbench/workloads.py``,
read as it is) in process, at each seed, exactly as the benchmark passes it
to the CLI, and prints one line per run:

    <sha256 of stdout>  <exit status>  <workload>  seed=<S>  <invocation>

Two checkouts print the same lines exactly when every stdout is byte-identical,
so comparing a change with its parent is one command:

    python scripts/stdout_digest.py --against ../parent

runs both checkouts, each in its own process, and prints only the lines that
differ (``- `` from DIR, ``+ `` from the root); it exits 1 on any difference
and 0, printing nothing, when every stdout is identical.

Usage: python scripts/stdout_digest.py [--root DIR] [--against DIR] [--workload W] [--seed S ...]
``--root`` is the checkout to run (default: the one holding this script).
"""

import argparse
import difflib
import hashlib
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="checkout whose src/ and perfbench/ run")
    parser.add_argument("--against", help="another checkout: print only the lines where the two differ")
    parser.add_argument("--workload", help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, nargs="+", default=[0, 3], help="seeds (default: 0 3)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if args.against is not None:
        selection = ["--seed", *map(str, args.seed)] + (["--workload", args.workload] if args.workload else [])
        against, ours = (digest_lines(checkout, selection) for checkout in (args.against, root))
        differing = [line for line in difflib.ndiff(against, ours) if line[:2] in ("- ", "+ ")]
        for line in differing:
            print(line)
        return 1 if differing else 0
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


def digest_lines(root: str, selection: list) -> list:
    """The digest lines of one checkout, run in its own process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--root", root, *selection],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


if __name__ == "__main__":
    sys.exit(main())
