"""Camera capture steps and link device models."""

import dataclasses
import random

import pytest

from nanopipe.coro import END, EventLoop, VirtualClock, call_at, guard, loop_run, spawn_task
from nanopipe.errors import ConfigError, UsageError
from nanopipe.pipeline import (BufferState, Channel, grab, next_frame, pool_create, publish,
                               retire, stage, take)
from nanopipe.scenarios import load_scenario
from nanopipe.trace import Kind, TraceLog
from nanopipe.vnode import (DEFAULT_TRIGGER_SETUP_US, LinkConfig, Link, NodeGraph,
                            trigger_capture_us)

from conftest import times_of
from test_coro import timer_event


def fresh_loop(name="n0", offset=0, clock=None):
    return EventLoop(clock or VirtualClock(), name=name, offset_us=offset)


def spawn_camera(loop, pool, capture_us, frames, period=0, outs=()):
    """A paced frame source built as a scenario's pipelined producer is: wait
    for the frame's start, take a buffer or drop the frame, capture, publish.
    Returns the trace its captures and drops go to."""
    trace = TraceLog()
    capture = stage(trace, loop, "capture", capture_us)
    spawn_task(loop, "camera", [next_frame, grab, *capture, publish], pool=pool,
               outs=list(outs), frames=frames, period=period, t0=loop.now,
               trace=trace, frame=0, buf=None)
    return trace


# --- camera: trigger mode ---

def test_trigger_capture_completes_after_setup_plus_readout():
    loop = fresh_loop()
    pool = pool_create(loop, 1, 160 * 96)
    frames_ch = Channel(loop, "frames")
    trace = spawn_camera(loop, pool, trigger_capture_us(0, 8000, pool.capacity), 1,
                         outs=[frames_ch])
    loop_run(loop)
    assert loop.now == 8000
    assert times_of(trace, Kind.STAGE_END, "capture") == [8000]
    (frame, buf), = frames_ch.items
    assert frame == 0 and buf.sequence == 0
    assert buf.state == BufferState.IN_USE


def test_back_to_back_trigger_captures_capped_near_30hz():
    # a free-running trigger producer waits for each capture to end
    capture_us = trigger_capture_us(DEFAULT_TRIGGER_SETUP_US, 8000, 15360)
    assert 29.9 < 1e6 / capture_us <= 30.1
    loop = fresh_loop()
    n = 10
    trace = spawn_camera(loop, pool_create(loop, n, 15360), capture_us, n)
    loop_run(loop)
    assert len(times_of(trace, Kind.STAGE_END, "capture")) == n
    assert loop.now == n * capture_us
    assert n / (loop.now / 1e6) <= 30.1


def test_zero_size_frame_takes_setup_time_only():
    assert trigger_capture_us(2000, 8000, 0) == 2000
    assert trigger_capture_us(2000, 8000, 1) == 10000


def test_streaming_period_floor_enforced():
    spec = load_scenario("frontnet-latency")    # pipelined, streaming, 5 ms readout
    with pytest.raises(ConfigError):
        dataclasses.replace(spec, rate_hz=200.0)                     # 5,000 us period
    with pytest.raises(ConfigError):
        dataclasses.replace(spec, rate_hz=100.0, readout_us=12000)   # 10,000 us period


# --- camera: streaming mode ---

def _stream_with_holder(period, hold, pool_n, frames, readout):
    """A streaming camera's producer feeding one holder task that holds each
    buffer for ``hold``. Returns (delivered, dropped, jitter_us) from the
    trace: capture ends, drops, and how far the gaps between capture ends
    stray from the period."""
    loop = fresh_loop()
    pool = pool_create(loop, pool_n, 160 * 160)
    frames_ch = Channel(loop, "frames")
    spawn_task(loop, "holder", [take, lambda t: loop.now + hold, retire],
               inbox=frames_ch, pool=pool, frame=None, buf=None)
    trace = spawn_camera(loop, pool, readout, frames, period=period, outs=[frames_ch])
    loop_run(loop)
    ends = times_of(trace, Kind.STAGE_END, "capture")
    jitter_us = max((abs(b - a - period) for a, b in zip(ends, ends[1:])), default=0)
    return (len(ends), trace.count(Kind.DROP, "capture"), jitter_us), loop


def test_matched_rate_drops_zero_jitter_zero():
    # 48 Hz camera, downstream holds each frame 20.83 ms, double buffered
    stats, _ = _stream_with_holder(period=20833, hold=20830, pool_n=2,
                                   frames=100, readout=8000)
    assert stats == (100, 0, 0)


def test_oversubscribed_stream_drops_two_thirds():
    # 150 Hz sensor against a 20 ms consumer: delivered rate ~ 1/20 ms
    (delivered, dropped, _), loop = _stream_with_holder(period=6667, hold=20000, pool_n=2,
                                                        frames=300, readout=5000)
    assert delivered + dropped == 300
    assert abs(dropped / 300 - 2 / 3) < 0.02
    assert abs(delivered / (loop.now / 1e6) - 50.0) < 1.0


def test_pool_of_one_with_continuous_readout_drops():
    # sensor writes continuously (readout == period): with a single buffer any
    # nonzero downstream hold loses frames
    (_, dropped, _), _ = _stream_with_holder(period=10000, hold=1, pool_n=1,
                                             frames=50, readout=10000)
    assert dropped > 0


def _drop_law_counts(period, hold, pool_n, readout, frames, scale=1):
    (delivered, dropped, _), _ = _stream_with_holder(period * scale, hold * scale, pool_n,
                                                     frames, readout * scale)
    return delivered, dropped


@pytest.mark.parametrize("period,hold,pool_n", [
    (6667, 20000, 2), (6667, 12000, 2), (6667, 6000, 2), (6667, 6667, 2),
    (10000, 4000, 1), (10000, 5000, 1), (10000, 2000, 1),
    (8000, 7000, 3), (8000, 9000, 3), (20000, 19000, 2),
])
def test_drop_law_against_finer_tick_rerun(period, hold, pool_n):
    # drops are zero iff the consumer keeps up and the per-buffer turnaround
    # (readout + hold) fits inside pool_n frame periods; a 10x finer clock
    # must reproduce the exact same delivered/dropped counts
    readout = min(2000, period)
    delivered, dropped = _drop_law_counts(period, hold, pool_n, readout, 120)
    law_zero = hold <= period and (readout + hold) <= pool_n * period
    assert (dropped == 0) == law_zero
    assert _drop_law_counts(period, hold, pool_n, readout, 120, scale=10) == \
           (delivered, dropped)


# --- links ---

def two_node_link(cfg, off_src=0, off_dst=0):
    clock = VirtualClock()
    src = EventLoop(clock, name="a", offset_us=off_src)
    dst = EventLoop(clock, name="b", offset_us=off_dst)
    return Link(cfg, src, dst, TraceLog()), src, dst


def test_transfer_time_formula():
    cfg = LinkConfig("l", bandwidth_bps=20_000_000, base_latency_us=1000)
    # 25,600 B over 20 Mbit/s: 10.24 ms on the wire plus 1 ms of latency
    assert cfg.serialization_us(25600) == 10240
    assert cfg.base_latency_us + cfg.serialization_us(25600) == 11240


def test_delivery_time_matches_formula():
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=20_000_000, base_latency_us=1000))
    timer_event(src, link.send(b"", 25600))
    loop_run(src)
    assert times_of(link.trace, Kind.LINK_RX_END, "l") == [11240]
    assert dst.now == 11240
    msg = link.rx.try_get()
    assert msg is not None and msg[1] == 25600


def test_sender_done_at_last_byte_out():
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=8_000_000, base_latency_us=5000))
    done_ev = timer_event(src, link.send(b"", 1000))    # 1 ms on the wire, 5 ms latency
    at_1ms = []
    call_at(src, 1000, lambda: at_1ms.append(done_ev.completed))
    loop_run(src)
    assert at_1ms == [True]           # sender freed at 1 ms
    assert dst.now == 6000            # delivery at 6 ms


def test_injected_delay_shifts_every_delivery_exactly():
    base = LinkConfig("l", bandwidth_bps=10_000_000, base_latency_us=2000)
    delayed = LinkConfig("l", bandwidth_bps=10_000_000, base_latency_us=2000,
                         injected_delay_us=500_000)
    times = []
    for cfg in (base, delayed):
        link, src, dst = two_node_link(cfg)
        for i in range(3):
            link.send(b"", 5000, frame=i)
        loop_run(src)
        times.append(times_of(link.trace, Kind.LINK_RX_END, "l"))
    assert [b - a for a, b in zip(times[0], times[1])] == [500_000] * 3


def test_queued_sends_serialize_back_to_back_without_tasks(dispatches):
    # a link is a FIFO server: each message starts when the previous one's
    # last byte is out, and delivery follows base latency + serialization later
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=8_000_000, base_latency_us=300),
        off_dst=50)
    done = [timer_event(src, link.send(b"", 1000, frame=i))    # 1 ms on the wire each
            for i in range(3)]
    at_2ms = []
    call_at(src, 2000, lambda: at_2ms.append([ev.completed for ev in done]))
    loop_run(src)
    assert at_2ms == [[True, True, False]]
    assert times_of(link.trace, Kind.LINK_TX_START, "l") == [0, 1000, 2000]
    assert times_of(link.trace, Kind.LINK_RX_END, "l") == [1350, 2350, 3350]
    assert not dispatches


@pytest.mark.parametrize("timer_first", [True, False])
@pytest.mark.parametrize("reader", ["task", "handler"])
def test_arrival_handled_where_a_reader_task_would(reader, timer_first):
    # a delivery and a timer-woken task on the receiver at the same instant:
    # the reader runs after the task, whichever timer was pushed first. A
    # handler runs in place only when its drain would have run next anyway
    link, src, dst = two_node_link(LinkConfig("l", bandwidth_bps=1_000_000, base_latency_us=100))
    log = []
    if reader == "task":
        @guard
        def read(t):
            msg = link.rx.try_get()
            if msg is None:
                return link.rx.ready_event
            log.append(msg[0])
        spawn_task(dst, "reader", [read])
    else:
        link.rx.consume(lambda msg: log.append(msg[0]))
    if timer_first:
        tick = timer_event(dst, 100)
    link.send("a", 0)
    if not timer_first:
        tick = timer_event(dst, 100)
    spawn_task(dst, "tick", [lambda t: tick, lambda t: log.append("tick") or END])
    loop_run(src)
    assert log == ["tick", "a"]
    assert times_of(link.trace, Kind.LINK_RX_END, "l") == [100]


def test_same_instant_arrivals_handled_in_send_order():
    # zero-byte messages take no time on the wire, so both arrive at 100 us
    link, src, dst = two_node_link(LinkConfig("l", bandwidth_bps=1_000_000, base_latency_us=100))
    log = []
    link.rx.consume(lambda msg: log.append((msg[0], dst.now)))
    link.send(0, 0)
    link.send(1, 0)
    loop_run(src)
    assert log == [(0, 100), (1, 100)]


def test_inline_arrival_is_handled_after_the_sending_step():
    # a zero-latency, zero-byte send is delivered inside the sender's step; its
    # handler must still run after that step, as a queued drain does
    loop = fresh_loop()
    link = Link(LinkConfig("l", bandwidth_bps=1_000_000), loop, loop, TraceLog())
    log = []
    link.rx.consume(lambda msg: log.append(("handled", msg[0])))

    def send(t):
        link.send("m", 0)
        log.append(("sent", loop.now))
        return END

    spawn_task(loop, "sender", [send])
    loop_run(loop)
    assert log == [("sent", 0), ("handled", "m")]


def test_zero_byte_send_delivers_at_base_latency():
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=1_000_000, base_latency_us=700))
    link.send(b"", 0)
    loop_run(src)
    assert times_of(link.trace, Kind.LINK_RX_END, "l") == [700] and dst.now == 700
    assert [msg[1] for msg in link.rx.items] == [0]


def test_in_order_delivery_and_byte_conservation():
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=2_000_000, base_latency_us=300))
    sizes = [900, 10, 500, 0, 77]
    for i, n in enumerate(sizes):
        link.send(i, n)
    loop_run(src)
    got = []
    while True:
        msg = link.rx.try_get()
        if msg is None:
            break
        got.append((msg[0], msg[1]))
    assert got == list(enumerate(sizes))        # every byte delivered, in order
    assert link.trace.count(Kind.LINK_TX_START, "l") == len(sizes)
    assert link.trace.count(Kind.LINK_RX_END, "l") == len(sizes)


@pytest.mark.parametrize("reader", ["task", "handler"])
def test_jittered_mixed_sizes_deliver_in_send_order(reader):
    # seeded jitter reshuffles each message's serialization, yet the link
    # stays a FIFO server: every arrival time follows from the one before
    cfg = LinkConfig("l", bandwidth_bps=1_000_000, base_latency_us=50, jitter_us=40)
    sizes = [300, 0, 12, 0, 0, 999, 1, 64, 0, 250]
    link, src, dst = two_node_link(cfg, off_dst=7)
    link.rng = random.Random(5)
    got = []
    if reader == "task":
        @guard
        def read(t):
            msg = link.rx.try_get()
            if msg is None:
                return link.rx.ready_event
            got.append((msg[0], msg[1], dst.now))
        spawn_task(dst, "reader", [read])
    else:
        link.rx.consume(lambda msg: got.append((msg[0], msg[1], dst.now)))
    for i, n in enumerate(sizes):
        link.send(i, n, frame=i)
    loop_run(src)

    rng, free_at, expected = random.Random(5), 0, []
    for n in sizes:
        ser = max(1, cfg.serialization_us(n) + rng.randint(-cfg.jitter_us, cfg.jitter_us))
        free_at += ser
        expected.append(free_at + cfg.base_latency_us + 7)     # receiver-local time
    assert list(zip(*link.trace.columns(Kind.LINK_RX_END, "l"))) == list(enumerate(expected))
    assert got == [(i, n, t) for i, (n, t) in enumerate(zip(sizes, expected))]
    assert not link.in_flight


@pytest.mark.parametrize("seed", [0, 11, 2024])
@pytest.mark.parametrize("jitter", [1, 2, 3, 7, 8, 3000, 2**20])
def test_jitter_draws_match_the_stdlib_randrange(jitter, seed):
    # send draws jitter without randrange, yet must draw what it drew, draw
    # for draw, and leave the generator in the same state
    cfg = LinkConfig("l", bandwidth_bps=8_000_000, jitter_us=jitter)    # 1 us a byte
    link, src, _ = two_node_link(cfg)
    link.rng = random.Random(seed)
    reference = random.Random(seed)
    sizes = [(0, 1, 5, 2000)[i % 4] for i in range(1000)]
    done = [0]
    for n in sizes:     # the clock stands still, so each message queues behind the last
        done.append(link.send(None, n))
    expected = [max(1, n + reference.randrange(-jitter, jitter + 1)) for n in sizes]
    assert [b - a for a, b in zip(done, done[1:])] == expected
    assert link.rng.getstate() == reference.getstate()


def test_negative_jitter_rejected_when_the_link_is_built():
    with pytest.raises(ConfigError):
        two_node_link(LinkConfig("l", bandwidth_bps=8_000_000, jitter_us=-1))


def test_lowering_the_delay_mid_flight_raises():
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=8_000_000, base_latency_us=100, injected_delay_us=5000))
    link.send(0, 1000)                      # arrives at 1000 + 100 + 5000 us
    link.cfg.injected_delay_us = 0          # the next would arrive at 2100 us
    with pytest.raises(UsageError, match="before the one ahead of it"):
        link.send(1, 1000)
    assert link.trace.count(Kind.LINK_TX_START, "l") == 1 and link.free_at == 1000
    loop_run(src)
    assert [msg[0] for msg in link.rx.items] == [0]


def test_clock_offsets_stay_fixed_and_stamp_apart():
    clock = VirtualClock()
    a = fresh_loop("gap8", offset=0, clock=clock)
    b = EventLoop(clock, name="esp32", offset_us=1000)
    for t in (0, 5000, 123456):
        clock.now = t
        assert b.now - a.now == 1000


def test_node_graph_builds_four_offset_loops():
    g = NodeGraph(offsets={"gap8": 1000, "esp32": 2000, "stm32": 5000})
    assert set(g.loops) == {"stm32", "gap8", "esp32", "host"}
    assert g.loops["gap8"].now - g.loops["host"].now == 1000
    assert g.loops["stm32"].now == 5000


def test_node_graph_rejects_edges_outside_topology():
    g = NodeGraph()
    cfg = LinkConfig("x", bandwidth_bps=1_000_000)
    with pytest.raises(ConfigError):
        g.add_link("bad", "stm32", "host", "uart", cfg)
    with pytest.raises(ConfigError):
        NodeGraph(offsets={"tpu": 5})
    link = g.add_link("spi_up", "gap8", "esp32", "spi", cfg)
    assert g.links["spi_up"] is link
