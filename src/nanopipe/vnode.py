"""Virtual devices and links: cameras, point-to-point links, the node graph.

Cameras and links make no decisions: each serves one request at a time, in
arrival order. They are FIFO servers worked out with arithmetic, ``start =
max(now, free_at)``, that act at the instants it gives through ``call_at``
timer callbacks rather than as tasks. ``Link.send`` returns the time the
last byte leaves the sender, for a sender that waits for it, while delivery
fires at the receiver ``base_latency + serialization + injected_delay`` after
the transfer started, which is what lets consecutive hops overlap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .coro import Event, EventLoop, VirtualClock, call_at, event_complete
from .errors import ConfigError, UsageError
from .pipeline import BufferPool, BufferState, Channel, FrameBuffer
from .trace import Kind, TraceLog

TRIGGER = "trigger"
STREAMING = "streaming"

STREAMING_MIN_PERIOD_US = 6667          # 150 frame/s sensor ceiling

# Default per-request overhead in trigger mode. With the reference 8 ms
# readout this caps back-to-back captures at 30 frame/s; the split between
# setup and readout is a modeling choice, only the ~30 Hz ceiling is given.
DEFAULT_TRIGGER_SETUP_US = 25333


@dataclass
class CameraConfig:
    mode: str
    resolution: tuple = (160, 160)
    frame_period_us: int = 0                       # streaming only
    readout_us: int = 8000
    trigger_setup_us: int = DEFAULT_TRIGGER_SETUP_US

    def __post_init__(self):
        if self.mode not in (TRIGGER, STREAMING):
            raise ConfigError(f"unknown camera mode {self.mode!r}")
        if self.mode == STREAMING:
            if self.frame_period_us < STREAMING_MIN_PERIOD_US:
                raise ConfigError(
                    f"streaming period {self.frame_period_us} us below the "
                    f"{STREAMING_MIN_PERIOD_US} us (150 frame/s) sensor ceiling")
            if self.readout_us > self.frame_period_us:
                raise ConfigError("readout longer than the streaming frame period")

    @property
    def frame_bytes(self) -> int:
        return self.resolution[0] * self.resolution[1]

    @property
    def trigger_ceiling_hz(self) -> float:
        return 1e6 / (self.trigger_setup_us + self.readout_us)


@dataclass
class StreamStats:
    delivered: int = 0
    dropped: int = 0
    jitter_us: int = 0


class Camera:
    """Image source on one node; trigger (per-request) or free-running."""

    def __init__(self, loop: EventLoop, config: CameraConfig, trace: TraceLog):
        self.loop = loop
        self.config = config
        self.trace = trace
        self.free_at = loop.now         # local time a trigger request can next start


def camera_capture(cam: Camera, buf: FrameBuffer, frame: int, done_ev: Event) -> None:
    """Request a single image of ``frame`` (trigger mode): after setup +
    readout the buffer is Ready and ``done_ev`` completes. Requests queue on
    the camera, so back-to-back captures cannot exceed the trigger-mode ceiling."""
    if cam.config.mode != TRIGGER:
        raise UsageError("camera_capture requires trigger mode")
    if buf.state == BufferState.FREE:
        buf.begin_fill()
    elif buf.state != BufferState.FILLING:
        raise UsageError(f"capture into buffer in state {buf.state.name}")
    loop = cam.loop
    cfg = cam.config
    start = max(loop.now, cam.free_at)
    cam.free_at = start + cfg.trigger_setup_us + (cfg.readout_us if buf.capacity > 0 else 0)

    def finish():
        cam.trace.emit(loop, Kind.STAGE_END, "capture", frame)
        buf.fill()
        buf.make_ready(frame)
        event_complete(loop, done_ev)

    call_at(loop, start, lambda: cam.trace.emit(loop, Kind.STAGE_START, "capture", frame))
    call_at(loop, cam.free_at, finish)


def camera_stream(cam: Camera, pool: BufferPool, on_frame: Callable,
                  frames: int) -> StreamStats:
    """Free-run the camera for ``frames`` periods, handing each Ready buffer
    to ``on_frame(buf, seq)``. Frames that find no Free buffer are dropped
    and counted; returns the live stats record, final once the loop is idle."""
    if cam.config.mode != STREAMING:
        raise UsageError("camera_stream requires streaming mode")
    loop = cam.loop
    period = cam.config.frame_period_us
    readout_us = cam.config.readout_us
    t0 = loop.now
    stats = StreamStats()
    last_delivery = t0

    def tick(n):
        buf = pool.try_acquire()
        if buf is None:
            # no Free buffer at frame start: the sensor output is lost
            cam.trace.emit(loop, Kind.DROP, "capture", n)
            stats.dropped += 1
            next_tick(n + 1)
            return
        cam.trace.emit(loop, Kind.STAGE_START, "capture", n)
        call_at(loop, loop.now + readout_us, lambda: read_out(n, buf))

    def read_out(n, buf):
        nonlocal last_delivery
        cam.trace.emit(loop, Kind.STAGE_END, "capture", n)
        buf.fill()
        buf.make_ready(n)
        if stats.delivered:
            stats.jitter_us = max(stats.jitter_us, abs(loop.now - last_delivery - period))
        stats.delivered += 1
        last_delivery = loop.now
        on_frame(buf, n)
        next_tick(n + 1)

    def next_tick(n):
        if n < frames:
            call_at(loop, t0 + n * period, lambda: tick(n))

    next_tick(0)
    return stats


# --- links -------------------------------------------------------------------

@dataclass
class LinkConfig:
    name: str
    bandwidth_bps: int
    base_latency_us: int = 0
    mtu: int = 1024
    injected_delay_us: int = 0
    segmentation: bool = True
    jitter_us: int = 0              # +/- uniform noise on serialization, opt-in

    def serialization_us(self, nbytes: int) -> int:
        if nbytes == 0:
            return 0
        return -(-nbytes * 8 * 1_000_000 // self.bandwidth_bps)

    def transfer_time_us(self, nbytes: int) -> int:
        return self.base_latency_us + self.serialization_us(nbytes) + self.injected_delay_us

    def segments(self, nbytes: int) -> int:
        return max(1, math.ceil(nbytes / self.mtu))


@dataclass(slots=True)
class Received:
    payload: object
    nbytes: int
    meta: object
    first_byte_ts: int      # receiver-local clock at first-byte arrival


class Link:
    """Directed point-to-point link between two node loops.

    A FIFO server: messages serialize one at a time in send order, so each
    one's timing follows from the sender's ``free_at`` when it is sent.
    """

    def __init__(self, cfg: LinkConfig, src: EventLoop, dst: EventLoop,
                 trace: TraceLog, rng=None):
        self.cfg = cfg
        self.src = src
        self.dst = dst
        self.trace = trace
        self.rng = rng
        self.rx = Channel(dst, f"{cfg.name}-rx")
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.free_at = src.clock.now    # global time the last queued byte leaves

    def send(self, payload, nbytes: int, meta=None, frame: Optional[int] = None) -> int:
        """Queue a message; it arrives as a ``Received`` on ``rx``.

        Returns the sender-local time at which its last byte leaves the
        sender. The sent counters count a message when it is queued, the
        delivered counters when it arrives.
        """
        if nbytes < 0:
            raise UsageError("negative message size")
        cfg = self.cfg
        if nbytes > cfg.mtu and not cfg.segmentation:
            raise UsageError(
                f"{nbytes} B exceeds the {cfg.mtu} B mtu and segmentation is disabled")
        src, dst = self.src, self.dst
        ser = cfg.serialization_us(nbytes)
        if cfg.jitter_us and self.rng is not None:
            ser = max(1, ser + self.rng.randint(-cfg.jitter_us, cfg.jitter_us))
        start = max(src.clock.now, self.free_at)
        self.free_at = start + ser
        self.bytes_sent += nbytes
        self.messages_sent += 1
        if start == src.clock.now:      # idle link: what call_at would run inline
            self.trace.emit(src, Kind.LINK_TX_START, cfg.name, frame)
        else:
            call_at(src, start + src.offset_us,
                    lambda: self.trace.emit(src, Kind.LINK_TX_START, cfg.name, frame))
        first_byte = start + cfg.base_latency_us + cfg.injected_delay_us + dst.offset_us
        received = Received(payload, nbytes, meta, first_byte)
        call_at(dst, first_byte + ser, lambda: self._deliver(received, frame))
        return self.free_at + src.offset_us

    def _deliver(self, received: Received, frame: Optional[int]) -> None:
        self.trace.emit(self.dst, Kind.LINK_RX_END, self.cfg.name, frame)
        self.bytes_delivered += received.nbytes
        self.messages_delivered += 1
        self.rx.put(received)


# Radio channel preset: low latency, low bandwidth, tiny packets. The radio
# carries setpoints and logging only, so packet semantics are not modeled.
CRTP_PRESET = LinkConfig(name="crtp", bandwidth_bps=2_000_000,
                         base_latency_us=1000, mtu=31)


# --- node graph ----------------------------------------------------------------

NODE_NAMES = ("stm32", "nrf51", "gap8", "esp32", "host")

# Directed physical edges of the platform; the camera hangs off the gap8 and
# its parallel interface is folded into the capture readout time.
TOPOLOGY = frozenset({
    ("stm32", "nrf51", "uart"), ("nrf51", "stm32", "uart"),
    ("stm32", "gap8", "uart"), ("gap8", "stm32", "uart"),
    ("gap8", "esp32", "spi"), ("esp32", "gap8", "spi"),
    ("camera", "gap8", "cpi"),
    ("nrf51", "host", "radio"), ("host", "nrf51", "radio"),
    ("esp32", "host", "wifi"), ("host", "esp32", "wifi"),
})


class NodeGraph:
    """The five platform nodes, each with its own loop and fixed clock offset.
    Only domain records reach ``trace``: the loops get no trace of their own."""

    def __init__(self, clock=None, trace: Optional[TraceLog] = None,
                 offsets: Optional[dict] = None, rng=None):
        self.clock = clock if clock is not None else VirtualClock()
        self.trace = trace if trace is not None else TraceLog()
        self.rng = rng
        offsets = offsets or {}
        unknown = set(offsets) - set(NODE_NAMES)
        if unknown:
            raise ConfigError(f"offsets for unknown nodes: {sorted(unknown)}")
        self.loops = {name: EventLoop(self.clock, name=name, offset_us=offsets.get(name, 0))
                      for name in NODE_NAMES}
        self.links: dict = {}

    def add_link(self, key: str, src: str, dst: str, kind: str, cfg: LinkConfig) -> Link:
        if (src, dst, kind) not in TOPOLOGY:
            raise ConfigError(f"no {kind} edge {src}->{dst} in the platform topology")
        link = Link(cfg, self.loops[src], self.loops[dst], self.trace, rng=self.rng)
        self.links[key] = link
        return link

    def loop(self, name: str) -> EventLoop:
        return self.loops[name]
