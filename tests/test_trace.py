"""The column store of ``TraceLog``: CSV output, the ``events`` view, the
queries, memory."""

import dataclasses
import gc
import random
import tracemalloc

import pytest

from nanopipe.coro import EventLoop, VirtualClock, loop_run
from nanopipe.scenarios import load_scenario, run_scenario
from nanopipe.trace import CSV_HEADER, Kind, TraceEvent, TraceLog
from nanopipe.vnode import Link, LinkConfig


def _two_loop_trace():
    clock = VirtualClock()
    gap8 = EventLoop(clock, name="gap8", offset_us=0)
    host = EventLoop(clock, name="host", offset_us=-250)
    trace = TraceLog()
    trace.emit(gap8, Kind.STAGE_START, "capture", 0)
    clock.now = 1000
    trace.emit(gap8, Kind.STAGE_END, "capture", 0)
    trace.emit(host, Kind.LINK_RX_END, "wifi", 0)
    clock.now = 1500
    trace.emit(host, Kind.DROP, "router-error")
    trace.emit(gap8, Kind.STAGE_START, "capture", 1)
    return trace


def test_csv_of_two_loops_with_offsets():
    assert _two_loop_trace().to_csv() == (
        "t_us,node,kind,subject,frame\n"
        "0,gap8,StageStart,capture,0\n"
        "1000,gap8,StageEnd,capture,0\n"
        "750,host,LinkRxEnd,wifi,0\n"
        "1250,host,Drop,router-error,\n"
        "1500,gap8,StageStart,capture,1\n")


def test_events_view_agrees_with_its_list():
    events = _two_loop_trace().events
    records = list(events)
    assert len(events) == len(records) == 5
    assert records[0] == TraceEvent(0, "gap8", Kind.STAGE_START, "capture", 0)
    assert [e for e in events] == records


def test_events_clear_leaves_only_the_header():
    trace = _two_loop_trace()
    trace.events.clear()
    assert len(trace.events) == 0
    assert trace.to_csv() == CSV_HEADER + "\n"


def test_assigning_events_replaces_the_records():
    trace = _two_loop_trace()
    new = [TraceEvent(7, "host", Kind.STAGE_END, "sink", None),
           TraceEvent(9, "esp32", Kind.QUEUE_FULL, "wifi", 3)]
    trace.events = new
    assert list(trace.events) == new
    assert trace.to_csv() == CSV_HEADER + "\n7,host,StageEnd,sink,\n9,esp32,QueueFull,wifi,3\n"


def test_a_link_records_its_keys_after_the_trace_is_cleared():
    # a link looks up its key codes once; clearing the records keeps the table
    clock = VirtualClock()
    gap8, esp32 = EventLoop(clock, name="gap8"), EventLoop(clock, name="esp32")
    trace = TraceLog()
    link = Link(LinkConfig("spi_up", bandwidth_bps=8_000_000), gap8, esp32, trace)
    trace.emit(esp32, Kind.DROP, "router-error")
    trace.events.clear()
    link.send(b"", 1000, frame=4)
    loop_run(gap8)
    assert trace.to_csv() == (CSV_HEADER + "\n0,gap8,LinkTxStart,spi_up,4\n"
                              "1000,esp32,LinkRxEnd,spi_up,4\n")
    trace.events = [TraceEvent(5, "host", Kind.STAGE_END, "sink", None)]
    link.send(b"", 0)
    assert trace.to_csv() == (CSV_HEADER + "\n5,host,StageEnd,sink,\n"
                              "1000,gap8,LinkTxStart,spi_up,\n1000,esp32,LinkRxEnd,spi_up,\n")


def _random_records(rng):
    """Records in random order of a few keys, one (kind, subject) of them on
    two nodes; about one record in four has no frame."""
    keys = [("host", Kind.STAGE_END, "sink"), ("stm32", Kind.STAGE_END, "sink"),
            ("gap8", Kind.STAGE_START, "capture"), ("gap8", Kind.DROP, "capture"),
            ("host", Kind.STAGE_START, "sink")]
    records, t_us = [], 0
    for _ in range(rng.randrange(200)):
        t_us += rng.randrange(50)
        frame = None if rng.random() < 0.25 else rng.randrange(100)
        records.append(TraceEvent(t_us, *rng.choice(keys), frame))
    return records


def test_queries_agree_with_a_scan_of_every_record():
    # the matches of one (kind, subject) on two nodes interleave, so a query
    # that returned them code by code, not in record order, would fail here
    queries = [(Kind.STAGE_END, "sink"), (Kind.STAGE_START, "capture"),
               (Kind.DROP, "capture"), (Kind.STAGE_START, "rtt_probe")]
    for seed in range(50):
        records = _random_records(random.Random(seed))
        trace = TraceLog()
        trace.events = records
        for kind, subject in queries:
            match = [e for e in records if (e.kind, e.subject) == (kind, subject)]
            assert trace.times(kind, subject) == [e.t_us for e in match]
            assert trace.frames_of(kind, subject) == [(e.frame, e.t_us) for e in match
                                                      if e.frame is not None]
            assert trace.count(kind, subject) == len(match)
        for kind in Kind.ALL:
            assert trace.count(kind) == sum(e.kind == kind for e in records)


@pytest.mark.parametrize("name", ["remote-sweep", "streaming-72hz"])
def test_only_rare_records_look_up_their_key(name, monkeypatch):
    # every record of a link, a stage or the sink appends a key code looked up
    # once; only Drop and QueueFull records go through emit's key lookup
    calls = []
    emit = TraceLog.emit

    def counted(*args):
        calls.append(args)
        emit(*args)
    monkeypatch.setattr(TraceLog, "emit", counted)
    trace, _ = run_scenario(dataclasses.replace(load_scenario(name), frames=300))
    rare = trace.count(Kind.DROP) + trace.count(Kind.QUEUE_FULL)
    assert len(calls) == rare
    if name == "streaming-72hz":
        assert rare > 0
    assert len(trace.events) > 300 * 5


def test_trace_retains_at_most_40_bytes_per_record():
    # A NamedTuple per record, with its own int timestamp, retains about 131 B.
    spec = dataclasses.replace(load_scenario("remote-sweep"), frames=2000)
    tracemalloc.start()
    try:
        trace, _ = run_scenario(spec)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        records = len(trace.events)
        del trace
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records > 30000
    assert freed / records <= 40
