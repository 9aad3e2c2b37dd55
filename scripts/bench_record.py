#!/usr/bin/env python3
"""Record the benchmark of one or more checkouts side by side in one JSON file.

    python3 scripts/bench_record.py --out BENCH_N.json [--seed 7] [--seconds 45] \
        [--rounds 3] NAME=CHECKOUT [NAME=CHECKOUT ...]

Each CHECKOUT is the root of a checkout of this repository. In each of
``--rounds`` rounds, for every workload that the first checkout's
``BENCHMARK.json`` lists, and both ``--trace 0`` (end to end) and
``--trace 1`` (per layer), the script runs ``python3 perfbench/run.py`` in
each checkout in turn, so that a slow spell on the machine reaches every
checkout alike; every other round takes the checkouts in reverse order. One
run per checkout spreads more than a 5 to 8 % change, so a record that is
cited takes 3 rounds or more, the default; one round only smoke-tests the
script. It writes the parsed result of every round's run (``results``: workload, then
``trace0`` or ``trace1``, then a list in round order) and, for every row of
those results, the median and the quartiles over the rounds (``summary``),
each checkout's git revision (and whether its tree had uncommitted
changes) and ``src_lines``, the line count of its ``src/nanopipe/*.py``, the
interpreter's ``sys.version`` and ``os.cpu_count()``. For each checkout it
also records ``calls_per_frame``: what ``scripts/calls_per_frame.py`` (this
script's own copy) prints for the fixture of each workload, run on that
checkout's package at the workload's frame count.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import runpy
import statistics
import subprocess
import sys

CALLS_SCRIPT = pathlib.Path(__file__).resolve().with_name("calls_per_frame.py")


def revision(checkout: pathlib.Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    rev = git("rev-parse", "HEAD")
    return {"revision": rev, "dirty": None if rev is None else bool(git("status", "--porcelain")),
            "src_lines": src_lines(checkout)}


def src_lines(checkout: pathlib.Path) -> int:
    """The line count of the checkout's ``src/nanopipe/*.py``: its newlines."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "nanopipe").glob("*.py"))


def calls_per_frame(checkout: pathlib.Path) -> dict:
    workloads = runpy.run_path(str(checkout / "perfbench" / "workloads.py"))["WORKLOADS"]
    calls = {}
    for fixture, frames in sorted(set(workloads.values())):
        proc = subprocess.run(
            [sys.executable, str(CALLS_SCRIPT), fixture, "--frames", str(frames)],
            cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
            capture_output=True, text=True, check=True)
        calls[fixture] = float(proc.stdout.split()[-1])
    return calls


def bench(checkout: pathlib.Path, workload: str, trace: int, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench in {checkout} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list) -> dict:
    """The median and the quartiles of ``values``, as ``statistics.quantiles``
    reads them inclusively; one value is its own median and quartiles."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(runs: list) -> dict:
    """``spread`` of every metric and of the failed operations over ``runs``."""
    rows = {name: spread([run["metrics"][name]["value"] for run in runs])
            for name in runs[0]["metrics"]}
    return {**rows, "failed": spread([run["failed"] for run in runs])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="NAME=CHECKOUT")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    checkouts = {}
    for item in args.checkouts:
        name, sep, path = item.partition("=")
        root = pathlib.Path(path).resolve()
        if not sep or not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{item!r} is not NAME=CHECKOUT with a perfbench/run.py")
        checkouts[name] = root

    spec = json.loads((next(iter(checkouts.values())) / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {name: {**revision(root), "calls_per_frame": calls_per_frame(root),
                   "results": {w: {"trace0": [], "trace1": []} for w in workloads}}
            for name, root in checkouts.items()}
    order = list(checkouts.items())
    for r in range(args.rounds):
        for workload in workloads:
            for trace in (0, 1):
                for name, root in order if r % 2 == 0 else order[::-1]:
                    print(f"round {r + 1}: {name}: {workload} --trace {trace}",
                          file=sys.stderr, flush=True)
                    runs[name]["results"][workload][f"trace{trace}"].append(
                        bench(root, workload, trace, args.seed, args.seconds))
    for run in runs.values():
        run["summary"] = {w: {mode: summary(rounds) for mode, rounds in modes.items()}
                          for w, modes in run["results"].items()}

    record = {"seed": args.seed, "seconds": args.seconds, "rounds": args.rounds,
              "python": sys.version,
              "cpu_count": os.cpu_count(), "checkouts": runs}
    pathlib.Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
