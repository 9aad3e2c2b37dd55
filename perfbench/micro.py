"""Layer microbenchmarks through the package's public API.

The three kinds ``nanopipe bench`` already has are called unchanged, so their
numbers stay comparable with it. The others time one operation of a layer the
same way ``nanopipe.bench`` does: each sample times a batch and divides, the
collector is paused while a batch runs, and the median sample is reported.
"""
from __future__ import annotations

import gc
import statistics
import time

from workloads import OUT_DIR


def _median_ns(make, op, batch: int, batches: int) -> float:
    """Median ns per operation; ``make()`` builds each batch's state untimed,
    ``op(state, batch)`` runs the batch."""
    samples = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        op(make(), batch)     # warm up
        for _ in range(batches):
            state = make()
            t0 = time.perf_counter_ns()
            op(state, batch)
            samples.append((time.perf_counter_ns() - t0) / batch)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


def timer_roundtrip_ns() -> float:
    """One ``schedule_completion`` pushed and fired through ``run_all``."""
    from nanopipe import EventLoop, VirtualClock, event_init, loop_run, schedule_completion
    loop = EventLoop(VirtualClock(), name="bench")

    def make():
        return [event_init("t") for _ in range(1000)]

    def op(events, n):
        base = loop.now
        for i, ev in enumerate(events):
            schedule_completion(loop, ev, base + 1 + i)
        loop_run(loop)        # run_all over the loop's clock
    return _median_ns(make, op, 1000, 200)


def pool_cycle_ns() -> float:
    """acquire -> ready -> attach -> release of one frame buffer."""
    from nanopipe import EventLoop, VirtualClock, pool_create
    pool = pool_create(EventLoop(VirtualClock(), name="bench"), 2, 64)

    def op(_, n):
        for i in range(n):
            buf = pool.try_acquire()
            pool.mark_ready(buf, i)
            pool.attach(buf)
            pool.release(buf)
    return _median_ns(lambda: None, op, 2000, 200)


def channel_handoff_ns() -> float:
    """One ``Channel.put`` and the matching ``try_get``."""
    from nanopipe import Channel, EventLoop, VirtualClock
    ch = Channel(EventLoop(VirtualClock(), name="bench"), "bench")
    item = (0, None)

    def op(_, n):
        for _ in range(n):
            ch.put(item)
            ch.try_get()
    return _median_ns(lambda: None, op, 2000, 200)


def link_transfer_ns() -> float:
    """One ``Link.send`` to delivery into the receiver's channel, gap8 -> esp32."""
    from nanopipe import LinkConfig, NodeGraph, loop_run
    graph = NodeGraph()
    link = graph.add_link("spi_up", "gap8", "esp32", "spi",
                          LinkConfig("spi_up", bandwidth_bps=20_000_000, base_latency_us=100))

    def make():
        link.rx.items.clear()
        graph.trace.events.clear()

    def op(_, n):
        for _ in range(n):
            link.send(b"", 16)
        loop_run(link.src)
        if len(link.rx) != n:
            raise RuntimeError(f"link delivered {len(link.rx)} of {n} messages")
    return _median_ns(make, op, 500, 100)


def router_forward_ns() -> float:
    """One ``router_forward`` of a packet handle into its output queue, and
    the dequeue that frees the slot again."""
    from nanopipe import NODE_IDS, CpxPacket, NodeGraph, Router, router_forward
    router = Router(NodeGraph())
    queue = router.attach_interface("wifi", None, None, destinations=(NODE_IDS["host"],))
    pkt = CpxPacket(NODE_IDS["gap8"], NODE_IDS["host"], 5)

    def op(_, n):
        for _ in range(n):
            router_forward(router, pkt)
            queue.try_dequeue()
    return _median_ns(lambda: None, op, 2000, 200)


def packet_decode_ns() -> float:
    """Decode of a header-only frame, the one ``bench_packet_encode`` encodes."""
    from nanopipe import CpxPacket, packet_decode, packet_encode
    frame = packet_encode(CpxPacket(source=4, destination=3, function=5))

    def op(_, n):
        for _ in range(n):
            packet_decode(frame)
    return _median_ns(lambda: None, op, 2000, 200)


def trace_emit_ns() -> float:
    from nanopipe import EventLoop, Kind, TraceLog, VirtualClock
    loop = EventLoop(VirtualClock(), name="bench")
    log = TraceLog()

    def make():
        log.events.clear()

    def op(_, n):
        for i in range(n):
            log.emit(loop, Kind.STAGE_START, "capture", i)
    return _median_ns(make, op, 2000, 200)


def csv_ns_per_event() -> float:
    """``TraceLog.write_csv`` of 20,000 records, per record."""
    from nanopipe import Kind, TraceEvent, TraceLog
    log = TraceLog()
    kinds = (Kind.SUSPEND, Kind.RESUME, Kind.EVENT_COMPLETE, Kind.STAGE_END)
    log.events = [TraceEvent(i, "gap8", kinds[i % 4], "inference", i // 4 if i % 2 else None)
                  for i in range(20000)]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"micro-{id(log)}.csv"
    try:
        return _median_ns(lambda: None, lambda _, n: log.write_csv(path), len(log.events), 20)
    finally:
        path.unlink(missing_ok=True)


def measure_all() -> dict:
    from nanopipe.bench import bench_ctx_switch, bench_event_complete, bench_packet_encode
    return {
        "coro.ctx_switch_ns": bench_ctx_switch().median_ns,
        "coro.event_complete_ns": bench_event_complete().median_ns,
        "coro.timer_roundtrip_ns": timer_roundtrip_ns(),
        "pipeline.pool_cycle_ns": pool_cycle_ns(),
        "pipeline.channel_handoff_ns": channel_handoff_ns(),
        "vnode.link_transfer_ns": link_transfer_ns(),
        "cpx.router_forward_ns": router_forward_ns(),
        "cpx.packet_encode_ns": bench_packet_encode().median_ns,
        "cpx.packet_decode_ns": packet_decode_ns(),
        "trace.emit_ns": trace_emit_ns(),
        "trace.csv_ns_per_event": csv_ns_per_event(),
    }
