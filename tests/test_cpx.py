"""Wire framing, zero-copy routing, backpressure, and clock-offset estimation."""

import pathlib
import random
from bisect import bisect_right
from collections import Counter
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopipe.coro import END, EventLoop, VirtualClock, guard, loop_run, spawn_task
from nanopipe.cpx import (BASELINE, FUNCTION_APP_STREAM, HEADER_BYTES, MAX_FRAGMENT_PAYLOAD,
                          NODE_IDS, ZEROCOPY, CpxPacket, Router, RouterQueue,
                          estimate_clock_offset, packet_decode, packet_encode, reserve,
                          router_forward)
from nanopipe.errors import ConfigError, ProtocolError, UsageError
from nanopipe.pipeline import next_frame, pool_create
from nanopipe.trace import Kind, TraceLog
from nanopipe.vnode import LinkConfig, NodeGraph

from conftest import times_of

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cpx_frames.txt"

# the five header fields a frame carries besides its length
header = attrgetter("source", "destination", "function", "last_fragment", "version")


def load_golden():
    rows = []
    for line in GOLDEN.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        src, dst, last, fn, ver, payload_hex, frame_hex = line.split()
        payload = b"" if payload_hex == "-" else bytes.fromhex(payload_hex)
        rows.append((int(src), int(dst), bool(int(last)), int(fn), int(ver),
                     payload, bytes.fromhex(frame_hex)))
    return rows


# --- codec ---

@pytest.mark.parametrize("src,dst,last,fn,ver,payload,frame", load_golden())
def test_golden_vectors_encode(src, dst, last, fn, ver, payload, frame):
    pkt = CpxPacket(source=src, destination=dst, function=fn, payload=payload,
                    last_fragment=last, version=ver)
    assert packet_encode(pkt) == frame


@pytest.mark.parametrize("src,dst,last,fn,ver,payload,frame", load_golden())
def test_golden_vectors_decode(src, dst, last, fn, ver, payload, frame):
    pkt = packet_decode(frame)
    assert header(pkt) == (src, dst, fn, last, ver)
    assert bytes(pkt.payload) == payload


def test_header_only_frame_is_four_bytes_length_two():
    pkt = CpxPacket(source=NODE_IDS["gap8"], destination=NODE_IDS["host"],
                    function=FUNCTION_APP_STREAM)
    frame = packet_encode(pkt)
    assert len(frame) == 4
    assert frame[0] | (frame[1] << 8) == 2


def test_max_payload_frame():
    payload = b"\xab" * MAX_FRAGMENT_PAYLOAD
    frame = packet_encode(CpxPacket(4, 2, 5, payload, last_fragment=False))
    assert frame[:4] == bytes.fromhex("00045005")
    assert frame[4:] == payload
    assert packet_encode(CpxPacket(4, 2, 5, payload)) != frame  # last_fragment bit


def test_oversized_payload_rejected():
    with pytest.raises(ProtocolError):
        packet_encode(CpxPacket(4, 2, 5, b"x" * (MAX_FRAGMENT_PAYLOAD + 1)))


def test_bad_header_fields_rejected():
    for pkt in (CpxPacket(8, 2, 5), CpxPacket(4, -1, 5), CpxPacket(4, 2, 0),
                CpxPacket(4, 2, 64), CpxPacket(4, 2, 5, version=4)):
        with pytest.raises(ProtocolError):
            packet_encode(pkt)


def test_decode_rejects_malformed_frames():
    good = packet_encode(CpxPacket(4, 3, 5, b"ok"))
    with pytest.raises(ProtocolError):
        packet_decode(good[:3])                      # truncated below minimum
    bad_len = bytes((0x09, 0x00)) + good[2:]
    with pytest.raises(ProtocolError):
        packet_decode(bad_len)                       # length disagrees with size
    reserved = bytes((good[0], good[1], good[2] | 0x01, good[3])) + good[4:]
    with pytest.raises(ProtocolError):
        packet_decode(reserved)                      # reserved route bit set


@settings(max_examples=250, deadline=None)
@given(src=st.integers(0, 7), dst=st.integers(0, 7), fn=st.integers(1, 63),
       ver=st.integers(0, 3), last=st.booleans(),
       payload=st.binary(max_size=MAX_FRAGMENT_PAYLOAD))
def test_roundtrip_identity(src, dst, fn, ver, last, payload):
    pkt = CpxPacket(src, dst, fn, payload, last_fragment=last, version=ver)
    back = packet_decode(packet_encode(pkt))
    assert header(back) == header(pkt)
    assert bytes(back.payload) == payload


def test_roundtrip_fuzz_1000_seeded():
    rng = random.Random(99)
    for _ in range(1000):
        pkt = CpxPacket(rng.randrange(8), rng.randrange(8), rng.randrange(1, 64),
                        rng.randbytes(rng.randrange(0, 200)),
                        last_fragment=bool(rng.getrandbits(1)), version=rng.randrange(4))
        back = packet_decode(packet_encode(pkt))
        assert header(back) == header(pkt)
        assert bytes(back.payload) == bytes(pkt.payload)


def test_decode_payload_is_zero_copy_view():
    frame = packet_encode(CpxPacket(4, 3, 5, b"zero-copy"))
    pkt = packet_decode(frame)
    assert isinstance(pkt.payload, memoryview)
    assert pkt.copy_count == 0
    packet_encode(pkt)              # encoding copies the payload into a frame
    assert pkt.copy_count == 1


# --- router ---

def build_router_rig(mode, t_spi_us, t_wifi_us, nbytes, capacity=4,
                     copy_ns_per_byte=0.0, wifi_base_us=0):
    """gap8 -> spi -> esp32 router -> wifi -> host, with a recording sink."""
    graph = NodeGraph()
    spi_bw = nbytes * 8 * 1_000_000 // t_spi_us
    wifi_bw = nbytes * 8 * 1_000_000 // t_wifi_us
    spi_up = graph.add_link("spi_up", "gap8", "esp32", "spi",
                            LinkConfig("spi", spi_bw, 0))
    spi_down = graph.add_link("spi_down", "esp32", "gap8", "spi",
                              LinkConfig("spi", spi_bw, 0))
    wifi_up = graph.add_link("wifi_up", "esp32", "host", "wifi",
                             LinkConfig("wifi", wifi_bw, wifi_base_us))
    wifi_down = graph.add_link("wifi_down", "host", "esp32", "wifi",
                               LinkConfig("wifi", wifi_bw, wifi_base_us))
    router = Router(graph, mode=mode, queue_capacity=capacity,
                    copy_ns_per_byte=copy_ns_per_byte)
    router.attach_interface("wifi", in_link=wifi_down, out_link=wifi_up,
                            destinations=(NODE_IDS["host"],))
    router.attach_interface("spi", in_link=spi_up, out_link=spi_down,
                            destinations=(NODE_IDS["gap8"], NODE_IDS["stm32"]))
    return graph, router, spi_up


def _make_image(t):
    # the sender's buffer is the packet, as on the host
    t.buf = CpxPacket(NODE_IDS["gap8"], NODE_IDS["host"], FUNCTION_APP_STREAM,
                      memoryview(bytes(t.nbytes)), meta=t.frame)


def _send_image(t):
    return t.link.send(t.buf, HEADER_BYTES + len(t.buf.payload), frame=t.frame)


def _sent(t):
    t.frame += 1
    t.buf = None


def run_stream(mode, t_spi_us, t_wifi_us, nbytes=25600, frames=40, capacity=4,
               copy_ns_per_byte=0.0, period_us=0):
    graph, router, spi_up = build_router_rig(mode, t_spi_us, t_wifi_us, nbytes,
                                             capacity, copy_ns_per_byte)
    # credit-gated image sender on the gap8 loop, paced when period_us > 0
    gap8 = graph.loop("gap8")
    sender = spawn_task(gap8, "image-tx", [next_frame, _make_image, reserve, _send_image, _sent],
                        link=spi_up, queue=router.queues["wifi"], trace=graph.trace,
                        frames=frames, nbytes=nbytes, period=period_us, t0=gap8.now,
                        frame=0, buf=None)
    arrivals = []
    link = graph.links["wifi_up"]

    @guard
    def host_sink(t):
        msg = link.rx.try_get()
        if msg is None:
            return link.rx.ready_event
        arrivals.append((msg.payload.meta, graph.loop("host").now, msg.payload))

    spawn_task(graph.loop("host"), "host-sink", [host_sink])
    loop_run(gap8)
    return graph, router, sender, arrivals


def router_counts(graph):
    """From the trace: packets into the router (its spi arrivals), packets out
    of its wifi queue (its wifi transmissions), and router errors."""
    n = Counter((e.node, e.kind, e.subject) for e in graph.trace.events)
    return (n["esp32", Kind.LINK_RX_END, "spi"], n["esp32", Kind.LINK_TX_START, "wifi"],
            n["esp32", Kind.DROP, "router-error"])


def peak_credits_held(graph, nbytes=25600):
    """From the trace: the most wifi-queue credits held at one spi send. The
    sender takes a credit before each spi send, and the queue frees it when
    that packet's last byte leaves on wifi; a slot freed at the instant of a
    send counts as free, so this is at most the true peak."""
    wifi_us = graph.links["wifi_up"].cfg.serialization_us(nbytes + 4)
    freed = [t + wifi_us for t in times_of(graph.trace, Kind.LINK_TX_START, "wifi")]
    sends = times_of(graph.trace, Kind.LINK_TX_START, "spi")
    return max(k + 1 - bisect_right(freed, t) for k, t in enumerate(sends))


def test_zero_copy_forwarding_copy_count_delta_zero():
    graph, router, sender, arrivals = run_stream(ZEROCOPY, 10000, 10000, frames=10)
    assert len(arrivals) == 10
    assert all(pkt.copy_count == 0 for _, _, pkt in arrivals)
    assert router_counts(graph) == (10, 10, 0)


def test_baseline_copies_once_per_forward():
    _, router, sender, arrivals = run_stream(BASELINE, 10000, 10000, frames=10)
    assert all(pkt.copy_count == 1 for _, _, pkt in arrivals)


def test_overlap_doubles_throughput_when_hops_are_equal():
    # t_spi = t_wifi = ~10 ms per frame: the overlapped router sustains one
    # frame per hop time (~100 frame/s) vs. one per the sum (~50 frame/s)
    wire = 25600 + 4
    graph, _, _, fast = run_stream(ZEROCOPY, 10000, 10000, frames=30)
    hop = graph.links["wifi_up"].cfg.serialization_us(wire)
    assert abs(hop - 10000) <= 2
    gaps = [b - a for (_, a, _), (_, b, _) in zip(fast[10:], fast[11:])]
    assert all(g == hop for g in gaps)

    graph, _, _, slow = run_stream(BASELINE, 10000, 10000, frames=30)
    both = (graph.links["spi_up"].cfg.serialization_us(wire)
            + graph.links["wifi_up"].cfg.serialization_us(wire))
    gaps = [b - a for (_, a, _), (_, b, _) in zip(slow[10:], slow[11:])]
    assert all(g == both for g in gaps)


def test_backpressure_no_loss_under_2x_overload_for_10s():
    # wifi sustains 10 ms/frame; the sender offers every 5 ms for 10 simulated
    # seconds: everything sent must eventually arrive, in order, none dropped
    frames = 2000                            # 2000 * 5 ms of offered load
    graph, router, sender, arrivals = run_stream(ZEROCOPY, 2000, 10000,
                                                 frames=frames, period_us=5000)
    assert sender.frame == frames
    assert [a[0] for a in arrivals] == list(range(frames))
    q = router.queues["wifi"]
    assert router_counts(graph) == (frames, frames, 0)
    # overload fills the queue, and enqueue's and release_slot's guards keep
    # it from going further
    assert peak_credits_held(graph) == q.capacity
    assert graph.trace.count(Kind.QUEUE_FULL, "wifi") > 0    # it really blocked
    assert graph.loop("gap8").now >= 10_000_000


def test_conservation_enqueued_equals_delivered_plus_in_flight():
    graph, router, sender, arrivals = run_stream(ZEROCOPY, 3000, 9000, frames=25)
    q = router.queues["wifi"]
    into, out, errors = router_counts(graph)
    assert into == out + len(q.items) and errors == 0
    assert len(q.items) == 0
    assert len(arrivals) == 25


def test_forwarding_runs_no_task_on_the_router(dispatches):
    graph, router, _, arrivals = run_stream(ZEROCOPY, 3000, 9000, frames=10)
    assert len(arrivals) == 10
    assert dispatches[router.loop] == 0


@pytest.mark.parametrize("copy_ns_per_byte,copy_us", [(50.0, 1280), (0.0, 0)])
def test_baseline_copy_delays_transmit_after_dequeue(copy_ns_per_byte, copy_us):
    # one packet in the router at a time: the egress takes each one off the
    # queue as it arrives, copies its 25,600 B payload, then starts the wifi hop
    graph, _, _, arrivals = run_stream(BASELINE, 2000, 10000, frames=5,
                                       copy_ns_per_byte=copy_ns_per_byte)
    assert len(arrivals) == 5
    dequeued = times_of(graph.trace, Kind.LINK_RX_END, "spi")
    assert times_of(graph.trace, Kind.LINK_TX_START, "wifi") == [t + copy_us for t in dequeued]


def test_full_queue_sender_wakes_when_the_last_byte_leaves():
    # depth 1: every frame after the first finds the queue full, and its
    # sender goes on at the instant the packet ahead of it is off the router
    graph, router, _, arrivals = run_stream(ZEROCOPY, 2000, 10000, frames=5, capacity=1)
    assert len(arrivals) == 5
    assert graph.trace.count(Kind.QUEUE_FULL, "wifi") == 4
    wifi_us = graph.links["wifi_up"].cfg.serialization_us(25600 + 4)
    last_byte_out = [t + wifi_us for t in times_of(graph.trace, Kind.LINK_TX_START, "wifi")]
    assert times_of(graph.trace, Kind.LINK_TX_START, "spi")[1:] == last_byte_out[:-1]
    assert router_counts(graph) == (5, 5, 0)


def test_credit_events_are_reused_and_wake_the_oldest_sender():
    # three senders on two loops take turns on a depth-1 queue: each holds the
    # slot 100 us, frees it, and stalls for it again after a random pause
    clock, trace = VirtualClock(), TraceLog()
    loops = [EventLoop(clock, name="n0"), EventLoop(clock, name="n1", offset_us=37)]
    queue = RouterQueue(loops[0], "q", 1)
    rng = random.Random(3)
    stalled, events, stalls = [], set(), Counter()
    peak = 0

    @guard
    def take_credit(t):
        nonlocal peak
        ev = reserve(t)
        if ev is not None:
            stalled.append(t)
            events.add(ev)
            stalls[t.loop.name] += 1
            peak = max(peak, len(stalled))
        return ev

    def free(t):
        queue.release_slot()
        woken = [s for s in stalled if s in s.loop.ready]
        if stalled:
            # one wake per freed slot: the oldest waiter, on its own loop
            assert [s.label for s in woken] == [stalled.pop(0).label]
        t.count += 1
        return END if t.count == 200 else t.loop.now + rng.randrange(1, 250)

    senders = [spawn_task(loop, f"s{i}", [take_credit, lambda t: t.loop.now + 100, free],
                          queue=queue, trace=trace, frame=None, count=0)
               for i, loop in enumerate((loops[0], loops[1], loops[0]))]
    loop_run(loops[0])
    assert [s.count for s in senders] == [200] * 3 and not stalled
    assert sum(stalls.values()) > 400 and peak == 2
    assert len(events) <= peak
    assert Counter(e.node for e in trace.events if e.kind == Kind.QUEUE_FULL) == stalls


def test_unknown_destination_goes_to_error_sink():
    graph, router, _ = build_router_rig(ZEROCOPY, 1000, 1000, 100)
    pkt = CpxPacket(NODE_IDS["gap8"], 6, 9)      # 6: no interface routes there
    router_forward(router, pkt)
    assert graph.trace.count(Kind.DROP, "router-error") == 1
    assert not any(q.items for q in router.queues.values())
    ok = CpxPacket(NODE_IDS["gap8"], NODE_IDS["host"], 9)
    router.queues["wifi"].try_reserve()
    router_forward(router, ok)
    assert graph.trace.count(Kind.DROP, "router-error") == 1
    assert list(router.queues["wifi"].items) == [ok] and not router.queues["spi"].items


def test_baseline_forces_queue_depth_one():
    _, router, _ = build_router_rig(BASELINE, 1000, 1000, 100, capacity=8)
    assert router.queues["wifi"].capacity == 1


def test_router_mode_validated():
    with pytest.raises(ConfigError):
        Router(NodeGraph(), mode="turbo")


# --- clock offset estimation ---

def offset_rig(offset_b, up_base, down_base):
    """The two spi links between gap8 and an esp32 ``offset_b`` us ahead."""
    graph = NodeGraph(offsets={"esp32": offset_b})
    up = graph.add_link("up", "gap8", "esp32", "spi", LinkConfig("spi", 8_000_000, up_base))
    down = graph.add_link("down", "esp32", "gap8", "spi",
                          LinkConfig("spi", 8_000_000, down_base))
    return up, down


def test_offset_estimate_exact_with_symmetric_latency():
    assert estimate_clock_offset(*offset_rig(1000, 2000, 2000), rounds=1) == 1000.0


def test_offset_zero_estimates_zero():
    assert estimate_clock_offset(*offset_rig(0, 1500, 1500), rounds=3) == 0.0


def test_offset_bias_is_half_the_asymmetry():
    # 2 ms up vs 4 ms down: the exchange under-reads the offset by 1 ms
    est = estimate_clock_offset(*offset_rig(10_000, 2000, 4000), rounds=2)
    assert est == 10_000 - 1000


def test_offset_requires_rounds():
    with pytest.raises(ConfigError):
        estimate_clock_offset(*offset_rig(0, 1, 1), rounds=0)
