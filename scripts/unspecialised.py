#!/usr/bin/env python3
"""Per-frame instructions that CPython 3.11 leaves unspecialised, by function and line.

    python3 scripts/unspecialised.py FIXTURE... [--frames N]

For each FIXTURE, gives every ``nanopipe`` function a fresh copy of its code,
so that each call starts from unspecialised code whatever already ran in the
process. It then runs ``run_scenario`` at seed 7 and ``--frames`` frames
(default 1,000) under ``sys.settrace`` with ``f_trace_opcodes`` set, counting
how often each instruction of ``nanopipe`` code runs. A traced instruction
runs in its generic form and leaves the adaptive state as it was, so the
script then takes ``SNAPSHOTS`` snapshots: it runs the scenario untraced at
``--frames`` frames and one frame more each time, so that the runs stop at
different points, and after each run reads which per-frame instructions
``dis.get_instructions(code, adaptive=True)`` shows as ``*_ADAPTIVE`` in one
of the families of ``FAMILIES``: an attribute, global, subscript or compare
that failed to specialise, never tried, or is between a miss and its next
try.

It prints the fixture, then every instruction whose count per frame, times
the share of the snapshots that show it adaptive, is at least 1. Each line
gives that product, the module, function and line, and the instruction with
its argument, most frequent first. Such an instruction counts as one
bytecode in ``ops_per_frame.py`` but costs several times a specialised one:
an enum member loaded through its class, a load through ``tuple.__new__``, a
method bound afresh for each timer. Under the trace a run takes about 30
times as long. From the root of a checkout, run with ``PYTHONPATH=src``; it
needs CPython 3.11, whose ``dis`` shows the adaptive forms.
"""
from __future__ import annotations

import argparse
import dataclasses
import dis
import gc
import pathlib
import sys
import types
from collections import Counter

SEED = 7

FAMILIES = ("LOAD_ATTR", "LOAD_METHOD", "LOAD_GLOBAL", "BINARY_SUBSCR", "COMPARE_OP",
            "STORE_ATTR")
SNAPSHOTS = 16


def fresh_code(package: pathlib.Path) -> None:
    """Give every live function defined under ``package`` a fresh copy of its
    code, nested code included, so it specialises again from the start."""
    copies = {}

    def copy(code):
        if code not in copies:
            consts = tuple(copy(c) if isinstance(c, types.CodeType) else c
                           for c in code.co_consts)
            copies[code] = code.replace(co_consts=consts)
        return copies[code]
    for obj in gc.get_objects():
        if (isinstance(obj, types.FunctionType)
                and pathlib.Path(obj.__code__.co_filename).parent == package):
            obj.__code__ = copy(obj.__code__)


def unspecialised(fixture: str, frames: int) -> list:
    """``(adaptive count per frame, module, function, line, instruction)`` of
    each unspecialised per-frame instruction of ``FAMILIES``, most frequent first."""
    import nanopipe
    from nanopipe import load_scenario, run_scenario
    package = pathlib.Path(nanopipe.__file__).parent
    spec = dataclasses.replace(load_scenario(fixture), frames=frames, seed=SEED)
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
    fresh_code(package)
    sys.settrace(call)
    try:
        run_scenario(spec)
    finally:
        sys.settrace(None)
    per_frame = {code for (code, _), n in counts.items() if n >= frames}
    adaptive_names = {family + "_ADAPTIVE" for family in FAMILIES}
    adaptive = Counter()
    for k in range(SNAPSHOTS):
        run_scenario(dataclasses.replace(spec, frames=frames + k))
        for code in per_frame:
            adaptive.update((code, ins.offset) for ins in dis.get_instructions(code, adaptive=True)
                            if ins.opname in adaptive_names)
    found = []
    for code in per_frame:
        line = None
        for ins in dis.get_instructions(code):     # the generic names
            line = ins.positions.lineno or line
            n = counts[code, ins.offset] * adaptive[code, ins.offset] / (frames * SNAPSHOTS)
            if n >= 1:
                found.append((n, pathlib.Path(code.co_filename).stem, code.co_qualname, line,
                              f"{ins.opname}_ADAPTIVE {ins.argrepr}".rstrip()))
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
