"""Microbenchmark plumbing and the desk-scale measured budgets."""

import pytest

from nanopipe.bench import (BENCH_KINDS, bench_event_complete, bench_packet_encode,
                            context_size_report, microbench)
from nanopipe.errors import ConfigError


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
