"""Microbenchmark plumbing and the desk-scale measured budgets."""

import cProfile
import dataclasses
import dis
import enum
import importlib
import pathlib
import platform
import sys
import types
from heapq import heappush

import pytest

import nanopipe
from nanopipe import load_scenario, run_scenario
from nanopipe.bench import (BENCH_KINDS, bench_event_complete, bench_packet_encode,
                            context_size_report, microbench)
from nanopipe.errors import ConfigError

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from calls_per_frame import calls_per_frame  # noqa: E402
from ops_per_frame import ops_per_frame  # noqa: E402
from unspecialised import FAMILIES, unspecialised  # noqa: E402

# Python calls per frame at 1,000 frames (scripts/calls_per_frame.py), at most;
# the exact counts of CPython 3.11.7 at the commit that set them
CALLS_PER_FRAME = {"streaming-72hz": 128.466, "remote-sweep": 223.315}

# bytecodes per frame at 1,000 frames (scripts/ops_per_frame.py), at most;
# the exact counts of CPython 3.11.7 at the commit that set them
OPS_PER_FRAME = {"streaming-72hz": 2180.092, "remote-sweep": 3842.298}


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        microbench("frobnicate")


def test_report_lines_are_printable():
    report = bench_event_complete(batch=200, batches=20)
    lines = report.lines()
    assert "event_complete: median" in lines[0]
    assert report.iterations == 200 * 20


def test_packet_encode_header_only_under_budget():
    # measured budget on this machine: a header-only frame encodes in <= 1 us
    report = bench_packet_encode(batch=2000, batches=200)
    assert report.median_ns <= 1000.0, f"median {report.median_ns:.0f} ns"


def test_context_size_report_fields():
    sizes = context_size_report()
    assert sizes["context_bookkeeping_bytes"] == 11
    assert sizes["reference_task_bytes_32bit_mcu"] == 18
    assert sizes["interpreter_object_bytes"] > sizes["context_bookkeeping_bytes"]


def test_all_kinds_run_quickly_in_smoke_mode():
    for kind, fn in (("event_complete", bench_event_complete),
                     ("packet_encode", bench_packet_encode)):
        assert kind in BENCH_KINDS
        report = fn(batch=100, batches=5)
        assert report.median_ns > 0


@pytest.mark.skipif(platform.python_implementation() != "CPython"
                    or sys.version_info[:2] != (3, 11),
                    reason="call counts differ between interpreters")
@pytest.mark.parametrize("fixture", sorted(CALLS_PER_FRAME))
def test_calls_per_frame_stay_at_most_the_recorded_count(fixture):
    # a count, not a timing: the run is deterministic, so it repeats exactly
    assert calls_per_frame(fixture, 1000) <= CALLS_PER_FRAME[fixture]


@pytest.mark.skipif(platform.python_implementation() != "CPython"
                    or sys.version_info[:2] != (3, 11),
                    reason="bytecodes differ between interpreters")
@pytest.mark.parametrize("fixture", sorted(OPS_PER_FRAME))
def test_bytecodes_per_frame_stay_at_most_the_recorded_count(fixture):
    # exact too, and it sees work inside a function that calls per frame miss
    assert round(sum(ops_per_frame(fixture, 1000).values()), 3) <= OPS_PER_FRAME[fixture]


@pytest.mark.skipif(platform.python_implementation() != "CPython"
                    or sys.version_info[:2] != (3, 11),
                    reason="the adaptive instructions are CPython 3.11's")
def test_unspecialised_lists_per_frame_instructions_of_its_families():
    rows = unspecialised("remote-sweep", 60)
    assert rows
    assert rows == sorted(rows, key=lambda row: (-row[0], row[1:]))
    for n, module, function, line, instruction in rows:
        assert n >= 1 and line > 0
        assert instruction.split()[0].removesuffix("_ADAPTIVE") in FAMILIES


def per_frame_code(fixture: str) -> set:
    """The ``nanopipe`` code objects that run per frame: those whose cProfile
    call counts grow from a 100-frame run of ``fixture`` to a 200-frame one."""
    package = pathlib.Path(nanopipe.__file__).parent

    def counts(frames):
        profile = cProfile.Profile()
        profile.runcall(run_scenario, dataclasses.replace(load_scenario(fixture), frames=frames))
        return {entry.code: entry.callcount for entry in profile.getstats()
                if not isinstance(entry.code, str)
                and pathlib.Path(entry.code.co_filename).parent == package}
    short, long = counts(100), counts(200)
    return {code for code, n in long.items() if n > short.get(code, 0)}


def enum_member_loads(code) -> list:
    """The ``Enum.MEMBER`` names that ``code`` loads through the enum class:
    its metaclass defines ``__getattr__``, so CPython does not specialise the load."""
    module = vars(importlib.import_module(f"nanopipe.{pathlib.Path(code.co_filename).stem}"))
    ops = list(dis.get_instructions(code))
    return [f"{load.argval}.{attr.argval}" for load, attr in zip(ops, ops[1:])
            if load.opname == "LOAD_GLOBAL" and isinstance(module.get(load.argval), enum.EnumMeta)
            and attr.opname in ("LOAD_ATTR", "LOAD_METHOD")]


def test_no_per_frame_function_loads_an_enum_member_through_its_class():
    # a count sees one load either way; a timing sees 5 to 10 times the cost
    code = per_frame_code("streaming-72hz") | per_frame_code("remote-sweep")
    assert len(code) > 20
    slow = {c.co_name: loads for c in code if (loads := enum_member_loads(c))}
    assert not slow, slow


@pytest.mark.parametrize("fixture", ["remote-sweep", "streaming-72hz"])
def test_every_timer_pushes_one_bound_method_per_owner(fixture, monkeypatch):
    # a method bound afresh per push is an allocation that no count sees
    from nanopipe import coro, vnode
    first, pushes = {}, []

    def push(heap, entry):
        fn = entry[-1]
        if isinstance(fn, types.MethodType):
            pushes.append(fn)
            first.setdefault((fn.__self__, fn.__func__), fn)
        heappush(heap, entry)
    monkeypatch.setattr(coro, "heappush", push)
    monkeypatch.setattr(vnode, "heappush", push)
    run_scenario(dataclasses.replace(load_scenario(fixture), frames=200))
    assert len(pushes) > 200
    fresh = {fn.__qualname__ for fn in pushes if fn is not first[fn.__self__, fn.__func__]}
    assert not fresh, fresh
