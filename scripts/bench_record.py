#!/usr/bin/env python3
"""Record the benchmark of one or more checkouts side by side in one JSON file.

    python3 scripts/bench_record.py --out BENCH_N.json [--seed 7] [--seconds 45] \
        NAME=CHECKOUT [NAME=CHECKOUT ...]

Each CHECKOUT is the root of a checkout of this repository. For every
workload that the first checkout's ``BENCHMARK.json`` lists, and both
``--trace 0`` (end to end) and ``--trace 1`` (per layer), the script runs
``python3 perfbench/run.py`` in each checkout in turn, so that a slow spell
on the machine reaches every checkout alike. It writes the parsed result of
each run, each checkout's git revision (and whether its tree had uncommitted
changes) and ``src_lines``, the line count of its ``src/nanopipe/*.py``, the
interpreter's ``sys.version`` and ``os.cpu_count()``.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys


def revision(checkout: pathlib.Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    rev = git("rev-parse", "HEAD")
    src_lines = sum(path.read_bytes().count(b"\n")
                    for path in (checkout / "src" / "nanopipe").glob("*.py"))
    return {"revision": rev, "dirty": None if rev is None else bool(git("status", "--porcelain")),
            "src_lines": src_lines}


def bench(checkout: pathlib.Path, workload: str, trace: int, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench in {checkout} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="NAME=CHECKOUT")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=45)
    args = parser.parse_args()

    checkouts = {}
    for item in args.checkouts:
        name, sep, path = item.partition("=")
        root = pathlib.Path(path).resolve()
        if not sep or not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{item!r} is not NAME=CHECKOUT with a perfbench/run.py")
        checkouts[name] = root

    spec = json.loads((next(iter(checkouts.values())) / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {name: {**revision(root), "results": {w: {} for w in workloads}}
            for name, root in checkouts.items()}
    for workload in workloads:
        for trace in (0, 1):
            for name, root in checkouts.items():
                print(f"{name}: {workload} --trace {trace}", file=sys.stderr, flush=True)
                runs[name]["results"][workload][f"trace{trace}"] = bench(
                    root, workload, trace, args.seed, args.seconds)

    record = {"seed": args.seed, "seconds": args.seconds, "python": sys.version,
              "cpu_count": os.cpu_count(), "checkouts": runs}
    pathlib.Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
