"""The column store of ``TraceLog``: CSV round trips, the ``events`` view, memory."""

import dataclasses
import gc
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


def test_frame_0_and_no_frame_survive_the_csv_round_trip(tmp_path):
    trace = _two_loop_trace()
    trace.write_csv(tmp_path / "trace.csv")
    back = TraceLog.from_csv(tmp_path / "trace.csv")
    assert list(back.events) == list(trace.events)
    assert [e.frame for e in back.events] == [0, 0, 0, None, 1]
    assert back.frames_of(Kind.STAGE_START, "capture") == [(0, 0), (1, 1500)]
    assert back.count(Kind.DROP) == 1 and back.times(Kind.DROP, "router-error") == [1250]
    assert back.to_csv() == trace.to_csv()


def test_events_view_agrees_with_its_list():
    events = _two_loop_trace().events
    records = list(events)
    assert len(events) == len(records) == 5
    assert events[0] == records[0] == TraceEvent(0, "gap8", Kind.STAGE_START, "capture", 0)
    assert events[-1] == records[-1] and events[-5] == records[0]
    assert events[1:4] == records[1:4] and events[::-2] == records[::-2]
    assert [e for e in events] == records
    with pytest.raises(IndexError):
        events[5]


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


@pytest.mark.parametrize("row,line", [
    ("5,gap8,StageEnd", 3),                      # too few fields
    ("5.5,gap8,StageEnd,capture,1", 3),          # a time that is not an integer
    ("5,gap8,StageEnd,capture,x", 3),            # a frame that is not an integer
])
def test_from_csv_names_the_line_of_a_malformed_row(tmp_path, row, line):
    path = tmp_path / "trace.csv"
    path.write_text(f"{CSV_HEADER}\n1,gap8,StageStart,capture,1\n{row}\n")
    with pytest.raises(ValueError, match=f"line {line}:"):
        TraceLog.from_csv(path)


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
