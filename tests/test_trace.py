"""The column store of ``TraceLog``: CSV output, the ``events`` view, the
queries, memory."""

import dataclasses
import gc
import pathlib
import random
import sys
import tracemalloc

import pytest

from nanopipe.coro import EventLoop, VirtualClock, loop_run
from nanopipe.scenarios import load_scenario, run_scenario
from nanopipe.trace import CSV_HEADER, Kind, TraceEvent, TraceLog
from nanopipe.vnode import Link, LinkConfig

from conftest import csv_text

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from heap_peak import SEED, metrics_peak  # noqa: E402


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
    assert csv_text(_two_loop_trace()) == (
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
    assert csv_text(trace) == CSV_HEADER + "\n"


def test_assigning_events_replaces_the_records():
    trace = _two_loop_trace()
    new = [TraceEvent(7, "host", Kind.STAGE_END, "sink", None),
           TraceEvent(9, "esp32", Kind.QUEUE_FULL, "wifi", 3)]
    trace.events = new
    assert list(trace.events) == new
    assert csv_text(trace) == CSV_HEADER + "\n7,host,StageEnd,sink,\n9,esp32,QueueFull,wifi,3\n"


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
    assert csv_text(trace) == (CSV_HEADER + "\n0,gap8,LinkTxStart,spi_up,4\n"
                               "1000,esp32,LinkRxEnd,spi_up,4\n")
    trace.events = [TraceEvent(5, "host", Kind.STAGE_END, "sink", None)]
    link.send(b"", 0)
    assert csv_text(trace) == (CSV_HEADER + "\n5,host,StageEnd,sink,\n"
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
            named = [e for e in match if e.frame is not None]
            frames, times = trace.columns(kind, subject)
            assert (frames.typecode, times.typecode) == ("q", "q")
            assert list(frames) == [e.frame for e in named]
            assert list(times) == [e.t_us for e in named]
            assert trace.count(kind, subject) == len(match)
        for kind in Kind.ALL:
            for subject in ("sink", "capture", "rtt_probe"):
                assert trace.count(kind, subject) == sum(
                    (e.kind, e.subject) == (kind, subject) for e in records)


@pytest.mark.parametrize("name", ["remote-sweep", "streaming-72hz"])
def test_only_rare_records_look_up_their_key(name, monkeypatch):
    # every record of a link, a stage, the sink or a credit stall appends a
    # key code looked up once; only Drop records (a lost capture, a router
    # error) go through emit's key lookup
    calls = []
    emit = TraceLog.emit

    def counted(*args):
        calls.append(args)
        emit(*args)
    monkeypatch.setattr(TraceLog, "emit", counted)
    trace, _ = run_scenario(dataclasses.replace(load_scenario(name), frames=300))
    assert all(kind == Kind.DROP for _, _, kind, *_ in calls)
    assert len(calls) == sum(e.kind == Kind.DROP for e in trace.events)
    if name == "streaming-72hz":
        # QueueFull comes about once a frame here, through the cached code
        assert trace.count(Kind.QUEUE_FULL, "wifi") > 0
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


@pytest.mark.parametrize("name", ["remote-sweep", "streaming-72hz"])
def test_metrics_extraction_peaks_at_most_200_bytes_per_receipt(name):
    # The metrics read the trace as two array('q') columns per query. Built
    # as (frame, t) tuples, with a sorted copy and a steady copy of them, the
    # receipts peaked at about 360 B each (scripts/heap_peak.py).
    spec = dataclasses.replace(load_scenario(name), frames=5000, seed=SEED)
    trace, metrics = run_scenario(spec)
    assert metrics.steady_receipts > 4900
    assert metrics_peak(spec, trace, metrics) / metrics.steady_receipts <= 200


EDGE_FRAMES = (None, 0, -1, 7, 2**63 - 1)


def test_edge_frames_read_back_as_given():
    # the frame column is unsigned: every reader must undo the two's complement
    given = [TraceEvent(t, "gap8", Kind.STAGE_END, "sink", f) for t, f in enumerate(EDGE_FRAMES)]
    assigned = TraceLog()
    assigned.events = given
    clock = VirtualClock()
    gap8 = EventLoop(clock, name="gap8")
    emitted = TraceLog()
    for event in given:
        clock.now = event.t_us
        if event.frame == -1:
            # a recorded frame is at least 0: a negative one raises and records nothing
            with pytest.raises(OverflowError):
                emitted.emit(gap8, Kind.STAGE_END, "sink", event.frame)
        else:
            emitted.emit(gap8, Kind.STAGE_END, "sink", event.frame)
    for trace, records in ((assigned, given), (emitted, [e for e in given if e.frame != -1])):
        assert list(trace.events) == records
        frames, times = trace.columns(Kind.STAGE_END, "sink")
        assert (frames.typecode, times.typecode) == ("q", "q")
        assert list(frames) == [e.frame for e in records if e.frame is not None]
        assert list(times) == [e.t_us for e in records if e.frame is not None]
        assert trace.count(Kind.STAGE_END, "sink") == len(records)
        assert csv_text(trace) == CSV_HEADER + "\n" + "".join(
            f"{e.t_us},gap8,StageEnd,sink,{'' if e.frame is None else e.frame}\n" for e in records)


def test_negative_local_times_recorded_through_record_read_back_signed(tmp_path):
    # host runs 5,000 us behind the global clock, so its local times are negative
    # until the clock reaches 5,000 us: record stores them in two's complement, and
    # every reader must read them back signed. The clock reaches 5,000 us at the
    # 1,025th record, the first of the export's second chunk.
    clock = VirtualClock()
    host = EventLoop(clock, name="host", offset_us=-5000)
    gap8 = EventLoop(clock, name="gap8")
    trace = TraceLog()
    keys = {loop: trace.key(loop.name, Kind.LINK_RX_END, "wifi") for loop in (host, gap8)}
    given = []
    for i, now in enumerate(range(5000 - 1024, 5000 + 1200)):
        clock.now = now
        loop = gap8 if i % 5 == 2 else host
        frame = None if i % 7 == 3 else i
        trace.record(loop, keys[loop], frame)
        given.append(TraceEvent(now + loop.offset_us, loop.name, Kind.LINK_RX_END, "wifi", frame))
    assert (given[0].t_us, given[1023].t_us, given[1024].t_us) == (-1024, -1, 0)
    assert list(trace.events) == given
    frames, times = trace.columns(Kind.LINK_RX_END, "wifi")
    named = [e for e in given if e.frame is not None]
    assert (list(frames), list(times)) == ([e.frame for e in named], [e.t_us for e in named])
    assert trace.count(Kind.LINK_RX_END, "wifi") == len(given)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert path.read_bytes() == (CSV_HEADER + "\n" + "".join(
        f"{e.t_us},{e.node},{e.kind},{e.subject},{'' if e.frame is None else e.frame}\n"
        for e in given)).encode()


@pytest.mark.parametrize("frame", [2**63, -2**63 - 1, 2**64 - 1])
def test_assigning_a_frame_outside_the_signed_range_raises(frame):
    # it must not wrap round, least of all to 1 << 63, the column's "no frame"
    trace = _two_loop_trace()
    before = list(trace.events)
    with pytest.raises(OverflowError):
        trace.events = [TraceEvent(0, "host", Kind.STAGE_END, "sink", frame)]
    assert list(trace.events) == before
