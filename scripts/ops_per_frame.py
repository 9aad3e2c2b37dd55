#!/usr/bin/env python3
"""Bytecodes executed per simulated frame of shipped fixtures, by module.

    python3 scripts/ops_per_frame.py FIXTURE... [--frames N]

For each FIXTURE, runs ``run_scenario`` once at seed 7 and ``--frames``
frames (default 1,000) under ``sys.settrace`` with ``f_trace_opcodes`` set
on every frame, and counts the ``opcode`` events by the file of the code
that ran them. It prints the fixture and the total per frame, then the count
per frame of each ``nanopipe`` module, largest first, and of all other code
(the standard library) as ``other``. A run is deterministic, so the counts
are exact: they repeat to the last digit, and unlike calls per frame
(``calls_per_frame.py``) they see work done inside a function. A C call
counts as one opcode, whatever it does, and so does an attribute load that
CPython cannot specialise, such as an enum member loaded through its class,
at 5 to 10 times the cost of a specialised load; so they do not replace a
timing. Taking eight such loads and a few wrappers out of a
``streaming-72hz`` frame cut its bytecodes by about 1 % and its time by
about 12 %.
Garbage left by the caller is collected first, as in ``calls_per_frame.py``.
The package is the one on ``sys.path``; from the root of a checkout, run
with ``PYTHONPATH=src``. Under the trace a run takes about 30 times as long.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import pathlib
import sys
from collections import Counter

SEED = 7


def ops_per_frame(fixture: str, frames: int) -> dict:
    """Bytecodes per frame by module: each ``nanopipe`` module's name, and
    ``other`` for the rest."""
    import nanopipe
    from nanopipe import load_scenario, run_scenario
    package = pathlib.Path(nanopipe.__file__).parent
    spec = dataclasses.replace(load_scenario(fixture), frames=frames, seed=SEED)
    counts = Counter()

    def call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        filename = frame.f_code.co_filename

        def opcode(frame, event, arg):
            if event == "opcode":
                counts[filename] += 1
            return opcode
        return opcode

    gc.collect()
    sys.settrace(call)
    try:
        run_scenario(spec)
    finally:
        sys.settrace(None)
    by_module = Counter()
    for filename, n in counts.items():
        path = pathlib.Path(filename)
        by_module[path.stem if path.parent == package else "other"] += n
    return {module: n / frames for module, n in by_module.most_common()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fixtures", nargs="+", metavar="FIXTURE")
    parser.add_argument("--frames", type=int, default=1000)
    args = parser.parse_args()
    if args.frames < 1:
        parser.error("--frames must be at least 1")
    for fixture in args.fixtures:
        counts = ops_per_frame(fixture, args.frames)
        print(f"{fixture} {sum(counts.values()):.1f}")
        for module, n in counts.items():
            print(f"  {module} {n:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
