"""Camera and link device models."""

import pytest

from nanopipe.coro import EventLoop, VirtualClock, event_init, loop_run, spawn_task
from nanopipe.errors import ConfigError, UsageError
from nanopipe.pipeline import BufferState, Channel, FrameBuffer, pool_create, retire, take
from nanopipe.trace import Kind, TraceLog
from nanopipe.vnode import (CRTP_PRESET, Camera, CameraConfig, LinkConfig, Link, NodeGraph,
                            STREAMING, TRIGGER, camera_capture, camera_stream)

from test_coro import timer_event


def fresh_loop(name="n0", offset=0, clock=None):
    return EventLoop(clock or VirtualClock(), name=name, offset_us=offset, trace=TraceLog())


# --- camera: trigger mode ---

def test_trigger_capture_completes_after_setup_plus_readout():
    loop = fresh_loop()
    cam = Camera(loop, CameraConfig(TRIGGER, resolution=(160, 96), readout_us=8000,
                                    trigger_setup_us=0), loop._trace)
    buf = FrameBuffer(0, 160 * 96)
    done_ev = event_init("cap")
    camera_capture(cam, buf, 0, done_ev)
    loop_run(loop)
    assert done_ev.completed
    assert loop.now == 8000
    assert buf.state == BufferState.READY
    assert buf.sequence == 0


def test_back_to_back_trigger_captures_capped_near_30hz():
    loop = fresh_loop()
    cfg = CameraConfig(TRIGGER, resolution=(160, 96), readout_us=8000)
    assert 29.9 < cfg.trigger_ceiling_hz <= 30.1
    cam = Camera(loop, cfg, loop._trace)
    n = 10
    for i in range(n):
        camera_capture(cam, FrameBuffer(0, 15360), i, event_init())
    loop_run(loop)
    assert loop.now == n * (cfg.trigger_setup_us + cfg.readout_us)
    assert n / (loop.now / 1e6) <= 30.1


def test_zero_size_frame_takes_setup_time_only():
    loop = fresh_loop()
    cam = Camera(loop, CameraConfig(TRIGGER, resolution=(0, 0), readout_us=8000,
                                    trigger_setup_us=2000), loop._trace)
    done_ev = event_init()
    camera_capture(cam, FrameBuffer(0, 0), 0, done_ev)
    loop_run(loop)
    assert done_ev.completed and loop.now == 2000


def test_capture_in_streaming_mode_rejected():
    loop = fresh_loop()
    cam = Camera(loop, CameraConfig(STREAMING, frame_period_us=20833), loop._trace)
    with pytest.raises(UsageError):
        camera_capture(cam, FrameBuffer(0, 100), 0, event_init())


def test_streaming_period_floor_enforced():
    with pytest.raises(ConfigError):
        CameraConfig(STREAMING, frame_period_us=5000)
    with pytest.raises(ConfigError):
        CameraConfig(STREAMING, frame_period_us=10000, readout_us=12000)


# --- camera: streaming mode ---

def _stream_with_holder(period, hold, pool_n, frames, readout):
    """Camera feeding one single-server consumer that holds each buffer."""
    loop = fresh_loop()
    cam = Camera(loop, CameraConfig(STREAMING, resolution=(160, 160),
                                    frame_period_us=period, readout_us=readout),
                 loop._trace)
    pool = pool_create(loop, pool_n, cam.config.frame_bytes)
    frames_ch = Channel(loop, "frames")
    spawn_task(loop, "holder", [take, lambda t: loop.now + hold, retire],
               inbox=frames_ch, pool=pool, frame=None, buf=None)

    def on_frame(buf, seq):
        pool.attach(buf)
        frames_ch.put((seq, buf))

    stats = camera_stream(cam, pool, on_frame, frames)
    loop_run(loop)
    return stats, loop


def test_matched_rate_drops_zero_jitter_zero():
    # 48 Hz camera, downstream holds each frame 20.83 ms, double buffered
    stats, _ = _stream_with_holder(period=20833, hold=20830, pool_n=2,
                                   frames=100, readout=8000)
    assert stats.dropped == 0
    assert stats.delivered == 100
    assert stats.jitter_us == 0


def test_oversubscribed_stream_drops_two_thirds():
    # 150 Hz sensor against a 20 ms consumer: delivered rate ~ 1/20 ms
    stats, loop = _stream_with_holder(period=6667, hold=20000, pool_n=2,
                                      frames=300, readout=5000)
    ratio = stats.dropped / 300
    assert abs(ratio - 2 / 3) < 0.02
    delivered_rate = stats.delivered / (loop.now / 1e6)
    assert abs(delivered_rate - 50.0) < 1.0


def test_pool_of_one_with_continuous_readout_drops():
    # sensor writes continuously (readout == period): with a single buffer any
    # nonzero downstream hold loses frames
    stats, _ = _stream_with_holder(period=10000, hold=1, pool_n=1,
                                   frames=50, readout=10000)
    assert stats.dropped > 0


def test_stream_on_trigger_camera_rejected():
    loop = fresh_loop()
    cam = Camera(loop, CameraConfig(TRIGGER), loop._trace)
    with pytest.raises(UsageError):
        camera_stream(cam, pool_create(loop, 2, 100), lambda b, s: None, 5)


def _drop_law_counts(period, hold, pool_n, readout, frames, scale=1):
    stats, _ = _stream_with_holder(period * scale, hold * scale, pool_n,
                                   frames, readout * scale)
    return stats.delivered, stats.dropped


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
    trace = TraceLog()
    src = EventLoop(clock, name="a", offset_us=off_src, trace=trace)
    dst = EventLoop(clock, name="b", offset_us=off_dst, trace=trace)
    return Link(cfg, src, dst, trace), src, dst


def test_transfer_time_formula():
    cfg = LinkConfig("l", bandwidth_bps=20_000_000, base_latency_us=1000, mtu=65536)
    # 25,600 B over 20 Mbit/s: 10.24 ms on the wire plus 1 ms of latency
    assert cfg.serialization_us(25600) == 10240
    assert cfg.transfer_time_us(25600) == 11240


def test_delivery_time_matches_formula():
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=20_000_000, base_latency_us=1000, mtu=65536))
    timer_event(src, link.send(b"", 25600))
    loop_run(src)
    assert link.trace.times(Kind.LINK_RX_END, "l") == [11240]
    assert dst.now == 11240
    msg = link.rx.try_get()
    assert msg is not None and msg.nbytes == 25600


def test_sender_done_at_last_byte_out():
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=8_000_000, base_latency_us=5000, mtu=65536))
    done_ev = timer_event(src, link.send(b"", 1000))    # 1 ms on the wire, 5 ms latency
    loop_run(src, until=1000)
    assert done_ev.completed          # sender freed at 1 ms
    loop_run(src)
    assert dst.now == 6000            # delivery at 6 ms


def test_injected_delay_shifts_every_delivery_exactly():
    base = LinkConfig("l", bandwidth_bps=10_000_000, base_latency_us=2000, mtu=65536)
    delayed = LinkConfig("l", bandwidth_bps=10_000_000, base_latency_us=2000,
                         mtu=65536, injected_delay_us=500_000)
    times = []
    for cfg in (base, delayed):
        link, src, dst = two_node_link(cfg)
        for i in range(3):
            link.send(b"", 5000, None, frame=i)
        loop_run(src)
        times.append(link.trace.times(Kind.LINK_RX_END, "l"))
    assert [b - a for a, b in zip(times[0], times[1])] == [500_000] * 3


def test_queued_sends_serialize_back_to_back_without_tasks():
    # a link is a FIFO server: each message starts when the previous one's
    # last byte is out, and delivery follows base latency + serialization later
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=8_000_000, base_latency_us=300, mtu=65536),
        off_dst=50)
    done = [timer_event(src, link.send(b"", 1000, frame=i))    # 1 ms on the wire each
            for i in range(3)]
    loop_run(src, until=2000)
    assert [ev.completed for ev in done] == [True, True, False]
    loop_run(src)
    assert link.trace.times(Kind.LINK_TX_START, "l") == [0, 1000, 2000]
    assert link.trace.times(Kind.LINK_RX_END, "l") == [1350, 2350, 3350]
    assert src.dispatch_count == dst.dispatch_count == 0


def test_zero_byte_send_delivers_at_base_latency():
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=1_000_000, base_latency_us=700, mtu=64))
    link.send(b"", 0)
    loop_run(src)
    assert link.trace.times(Kind.LINK_RX_END, "l") == [700] and dst.now == 700
    assert [msg.nbytes for msg in link.rx.items] == [0]


def test_oversized_send_without_segmentation_rejected():
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=1_000_000, base_latency_us=0, mtu=64,
                   segmentation=False))
    with pytest.raises(UsageError):
        link.send(b"", 65, None)
    link.send(b"", 64, None)
    loop_run(src)
    assert [msg.nbytes for msg in link.rx.items] == [64]
    assert link.trace.times(Kind.LINK_RX_END, "l") == [512]     # 64 B at 1 Mbit/s


def test_in_order_delivery_and_byte_conservation():
    link, src, dst = two_node_link(
        LinkConfig("l", bandwidth_bps=2_000_000, base_latency_us=300, mtu=256))
    sizes = [900, 10, 500, 0, 77]
    for i, n in enumerate(sizes):
        link.send(b"", n, meta=i)
    loop_run(src)
    got = []
    while True:
        msg = link.rx.try_get()
        if msg is None:
            break
        got.append((msg.meta, msg.nbytes))
    assert got == list(enumerate(sizes))
    assert link.bytes_sent == link.bytes_delivered == sum(sizes)
    assert link.messages_sent == link.messages_delivered == len(sizes)


def test_crtp_preset_is_slow_small_and_quick():
    assert CRTP_PRESET.mtu == 31
    assert CRTP_PRESET.serialization_us(31) == 124
    assert CRTP_PRESET.transfer_time_us(31) == 1124
    assert CRTP_PRESET.segments(62) == 2


def test_clock_offsets_stay_fixed_and_stamp_apart():
    clock = VirtualClock()
    a = fresh_loop("gap8", offset=0, clock=clock)
    b = EventLoop(clock, name="esp32", offset_us=1000, trace=a._trace)
    for t in (0, 5000, 123456):
        clock.now = t
        assert b.now - a.now == 1000


def test_first_byte_timestamp_uses_receiver_clock():
    clock = VirtualClock()
    trace = TraceLog()
    src = EventLoop(clock, name="gap8", offset_us=0, trace=trace)
    dst = EventLoop(clock, name="esp32", offset_us=1000, trace=trace)
    link = Link(LinkConfig("spi", bandwidth_bps=10_000_000, base_latency_us=200,
                           mtu=65536), src, dst, trace)
    link.send(b"", 1250)           # 1 ms serialization
    loop_run(src)
    msg = link.rx.try_get()
    # first byte lands base_latency after tx start, on the receiver's clock
    assert msg.first_byte_ts == 200 + 1000


# --- node graph ---

def test_node_graph_builds_five_offset_loops():
    g = NodeGraph(offsets={"gap8": 1000, "esp32": 2000, "stm32": 5000})
    assert set(g.loops) == {"stm32", "nrf51", "gap8", "esp32", "host"}
    assert g.loop("gap8").now - g.loop("host").now == 1000
    assert g.loop("stm32").now == 5000


def test_node_graph_rejects_edges_outside_topology():
    g = NodeGraph()
    cfg = LinkConfig("x", bandwidth_bps=1_000_000)
    with pytest.raises(ConfigError):
        g.add_link("bad", "stm32", "host", "uart", cfg)
    with pytest.raises(ConfigError):
        NodeGraph(offsets={"tpu": 5})
    link = g.add_link("spi_up", "gap8", "esp32", "spi", cfg)
    assert g.links["spi_up"] is link
