"""Microbenchmark plumbing and the desk-scale measured budgets."""

import pathlib
import platform
import sys

import pytest

from nanopipe.bench import (BENCH_KINDS, bench_event_complete, bench_packet_encode,
                            context_size_report, microbench)
from nanopipe.errors import ConfigError

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from calls_per_frame import calls_per_frame  # noqa: E402
from ops_per_frame import ops_per_frame  # noqa: E402

# Python calls per frame at 1,000 frames (scripts/calls_per_frame.py), at most;
# the exact counts of CPython 3.11.7 at the commit that set them
CALLS_PER_FRAME = {"streaming-72hz": 131.538, "remote-sweep": 228.423}

# bytecodes per frame at 1,000 frames (scripts/ops_per_frame.py), at most;
# the exact counts of CPython 3.11.7 at the commit that set them
OPS_PER_FRAME = {"streaming-72hz": 2215.368, "remote-sweep": 3892.017}


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
