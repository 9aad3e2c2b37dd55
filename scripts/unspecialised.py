#!/usr/bin/env python3
"""Per-frame instructions that CPython 3.11 leaves unspecialised, by function and line.

    python3 scripts/unspecialised.py FIXTURE... [--frames N]

For each FIXTURE, runs ``run_scenario`` once at seed 7 and ``--frames``
frames (default 1,000) to warm the interpreter up, then once more under
``sys.settrace`` with ``f_trace_opcodes`` set, counting how often each
instruction of ``nanopipe`` code runs. It prints the fixture, then every
instruction that runs at least once per frame and that
``dis.get_instructions(code, adaptive=True)`` still shows as ``*_ADAPTIVE``
in one of the families of ``FAMILIES``: an attribute, global, subscript or
compare that failed to specialise, or never tried. Each line gives the count
per frame, the module, function and line, and the instruction with its
argument, most frequent first. Such an instruction counts as one bytecode in
``ops_per_frame.py`` but costs several times a specialised one: an enum
member loaded through its class, a load through ``tuple.__new__``, a method
bound afresh for each timer. Under the trace a run takes about 30 times as
long. From the root of a checkout, run with ``PYTHONPATH=src``; it needs
CPython 3.11, whose ``dis`` shows the adaptive forms.
"""
from __future__ import annotations

import argparse
import dataclasses
import dis
import gc
import pathlib
import sys
from collections import Counter

SEED = 7

FAMILIES = ("LOAD_ATTR", "LOAD_METHOD", "LOAD_GLOBAL", "BINARY_SUBSCR", "COMPARE_OP",
            "STORE_ATTR")


def unspecialised(fixture: str, frames: int) -> list:
    """``(count per frame, module, function, line, instruction)`` of each
    unspecialised per-frame instruction of ``FAMILIES``, most frequent first."""
    import nanopipe
    from nanopipe import load_scenario, run_scenario
    package = pathlib.Path(nanopipe.__file__).parent
    spec = dataclasses.replace(load_scenario(fixture), frames=frames, seed=SEED)
    run_scenario(spec)
    counts = Counter()

    def call(frame, event, arg):
        if pathlib.Path(frame.f_code.co_filename).parent != package:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def opcode(frame, event, arg):
            if event == "opcode":
                counts[frame.f_code, frame.f_lasti] += 1
            return opcode
        return opcode

    gc.collect()
    sys.settrace(call)
    try:
        run_scenario(spec)
    finally:
        sys.settrace(None)
    adaptive = {family + "_ADAPTIVE" for family in FAMILIES}
    found = []
    for code in {code for code, _ in counts}:
        line = None
        for ins in dis.get_instructions(code, adaptive=True):
            line = ins.positions.lineno or line
            n = counts[code, ins.offset] / frames
            if n >= 1 and ins.opname in adaptive:
                found.append((n, pathlib.Path(code.co_filename).stem, code.co_qualname, line,
                              f"{ins.opname} {ins.argrepr}".rstrip()))
    return sorted(found, key=lambda row: (-row[0], row[1:]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fixtures", nargs="+", metavar="FIXTURE")
    parser.add_argument("--frames", type=int, default=1000)
    args = parser.parse_args()
    if args.frames < 1:
        parser.error("--frames must be at least 1")
    if sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11):
        parser.error("needs CPython 3.11, whose dis shows the adaptive instructions")
    for fixture in args.fixtures:
        rows = unspecialised(fixture, args.frames)
        print(f"{fixture} {sum(row[0] for row in rows):.1f}")
        for n, module, function, line, instruction in rows:
            print(f"  {n:8.1f}  {module}.{function}:{line}  {instruction}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
