"""Virtual devices and links: camera timing, point-to-point links, the node graph.

A capture is the ``"capture"`` stage of the task that produces frames, which
takes a Free buffer or drops the frame (``pipeline.grab``). A trigger camera
captures when that task asks, a streaming one every frame period; this module
gives only the modes and how long a capture takes. Links make no decisions:
each serves one whole message at a time, in send order. A link is a FIFO server
worked out with arithmetic, ``start = max(now, free_at)``, that acts at the
instants it gives through ``call_at`` timer callbacks rather than as a task.
``Link.send`` returns the time the last byte leaves the sender, for a sender
that waits for it, while delivery fires at the receiver ``base_latency +
serialization + injected_delay`` after the transfer started, which is what
lets consecutive hops overlap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coro import EventLoop, VirtualClock, call_at
from .errors import ConfigError, UsageError
from .pipeline import Channel
from .trace import Kind, TraceLog

TRIGGER = "trigger"
STREAMING = "streaming"

STREAMING_MIN_PERIOD_US = 6667          # 150 frame/s sensor ceiling

# Default per-request overhead in trigger mode. With the reference 8 ms
# readout this caps back-to-back captures at 30 frame/s; the split between
# setup and readout is a modeling choice, only the ~30 Hz ceiling is given.
DEFAULT_TRIGGER_SETUP_US = 25333


def trigger_capture_us(setup_us: int, readout_us: int, nbytes: int) -> int:
    """How long one trigger capture of ``nbytes`` takes: setup, then readout;
    a frame of no bytes has nothing to read out."""
    return setup_us + (readout_us if nbytes > 0 else 0)


# --- links -------------------------------------------------------------------

@dataclass
class LinkConfig:
    name: str
    bandwidth_bps: int
    base_latency_us: int = 0
    injected_delay_us: int = 0
    jitter_us: int = 0              # +/- uniform noise on serialization, opt-in

    def serialization_us(self, nbytes: int) -> int:
        if nbytes == 0:
            return 0
        return -(-nbytes * 8 * 1_000_000 // self.bandwidth_bps)


@dataclass(slots=True)
class Received:
    payload: object
    nbytes: int
    meta: object


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
        src, dst = self.src, self.dst
        ser = cfg.serialization_us(nbytes)
        if cfg.jitter_us and self.rng is not None:
            ser = max(1, ser + self.rng.randint(-cfg.jitter_us, cfg.jitter_us))
        now = src.clock.now
        start = self.free_at if self.free_at > now else now
        self.free_at = start + ser
        self.bytes_sent += nbytes
        self.messages_sent += 1
        if start == now:        # idle link: what call_at would run inline
            self.trace.emit(src, Kind.LINK_TX_START, cfg.name, frame)
        else:
            call_at(src, start + src.offset_us,
                    lambda: self.trace.emit(src, Kind.LINK_TX_START, cfg.name, frame))
        received = Received(payload, nbytes, meta)
        arrival = start + cfg.base_latency_us + cfg.injected_delay_us + ser
        # a delivery due now runs inline, inside the sender's step, so only one
        # fired off the timer heap may be handled in place (Channel.arrive)
        put = self.rx.put if arrival <= now else self.rx.arrive
        call_at(dst, arrival + dst.offset_us, lambda: self._deliver(received, frame, put))
        return self.free_at + src.offset_us

    def _deliver(self, received: Received, frame: Optional[int], put) -> None:
        self.trace.emit(self.dst, Kind.LINK_RX_END, self.cfg.name, frame)
        self.bytes_delivered += received.nbytes
        self.messages_delivered += 1
        put(received)


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
