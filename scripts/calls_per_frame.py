#!/usr/bin/env python3
"""Python calls per simulated frame of shipped fixtures, counted by cProfile.

    python3 scripts/calls_per_frame.py FIXTURE... [--frames N]

For each FIXTURE, runs ``run_scenario`` once at seed 7 and ``--frames``
frames (default 5,000) under ``cProfile``, and prints the fixture and every
call the profile counted (Python functions and C builtins alike, metrics
extraction included), divided by the frame count. A run is deterministic, so
the count is exact: it repeats to the last digit and compares two versions
of the package without the noise of a timing. Garbage left by the caller is
collected first, so that no finalizer of it runs, and counts, under the
profile. The package is the one on ``sys.path``; from the root of a
checkout, run with ``PYTHONPATH=src``.

The calls are summed over the profiler's raw entries, one per code object.
``pstats`` keys its table by (file, line, name), so the ``__init__`` methods
that ``dataclasses`` generates all share ``("<string>", 2, "__init__")`` and
all but one drop out of ``Stats.total_calls``; which one survives depends
on what else the process imported.
"""
from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import sys

SEED = 7


def calls_per_frame(fixture: str, frames: int) -> float:
    from nanopipe import load_scenario, run_scenario
    spec = dataclasses.replace(load_scenario(fixture), frames=frames, seed=SEED)
    profile = cProfile.Profile()
    gc.collect()
    profile.runcall(run_scenario, spec)
    return sum(entry.callcount for entry in profile.getstats()) / frames


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fixtures", nargs="+", metavar="FIXTURE")
    parser.add_argument("--frames", type=int, default=5000)
    args = parser.parse_args()
    if args.frames < 1:
        parser.error("--frames must be at least 1")
    for fixture in args.fixtures:
        print(f"{fixture} {calls_per_frame(fixture, args.frames):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
