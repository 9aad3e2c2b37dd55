"""Virtual devices and links: camera timing, point-to-point links, the four-node graph.

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
lets consecutive hops overlap. Arrivals never fall behind send order, so each
delivery timer is one pre-bound call that takes the head of the link's
``in_flight`` FIFO; a message due at the send instant skips it and is
delivered inline. A link looks up the trace key codes of its two records once.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
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
        return -(-nbytes * 8 * 1_000_000 // self.bandwidth_bps)


@dataclass(slots=True)
class Received:
    """A message as it arrives on ``Link.rx``; ``frame`` is what its records name."""
    payload: object
    nbytes: int
    frame: Optional[int]


class Link:
    """Directed point-to-point link between two node loops.

    A FIFO server: messages serialize one at a time in send order, so each
    one's timing follows from the sender's ``free_at`` when it is sent, and no
    message arrives before the one sent ahead of it. Nothing changes a built
    link's bandwidth, so it memoizes ``cfg.serialization_us`` per size.
    """

    def __init__(self, cfg: LinkConfig, src: EventLoop, dst: EventLoop,
                 trace: TraceLog, rng=None):
        self.cfg = cfg
        self.src = src
        self.dst = dst
        self.trace = trace
        self.rng = rng
        self.rx = Channel(dst, f"{cfg.name}-rx")
        self.in_flight: deque = deque()
        self._serialization_us = lru_cache(maxsize=None)(cfg.serialization_us)
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.free_at = src.clock.now    # global time the last queued byte leaves
        self.last_arrival = src.clock.now   # global time the last message arrives
        self._tx = trace.key(src.name, Kind.LINK_TX_START, cfg.name)
        self._rx = trace.key(dst.name, Kind.LINK_RX_END, cfg.name)

    def send(self, payload, nbytes: int, frame: Optional[int] = None) -> int:
        """Queue ``payload`` as a message of ``nbytes`` bytes whose link records
        name ``frame``; it arrives as a ``Received`` on ``rx``.

        Returns the sender-local time at which its last byte leaves the
        sender. The sent counters count a message when it is queued, the
        delivered counters when it arrives. A message that would arrive
        before the one sent ahead of it, which only a delay lowered while
        the link is busy can cause, raises ``UsageError``.
        """
        if nbytes < 0:
            raise UsageError("negative message size")
        cfg = self.cfg
        src = self.src
        ser = self._serialization_us(nbytes)
        if cfg.jitter_us and self.rng is not None:
            ser = max(1, ser + self.rng.randrange(-cfg.jitter_us, cfg.jitter_us + 1))
        now = src.clock.now
        start = self.free_at if self.free_at > now else now
        arrival = start + cfg.base_latency_us + cfg.injected_delay_us + ser
        if arrival < self.last_arrival:
            raise UsageError(f"link {cfg.name!r}: a message sent now would arrive at "
                             f"{arrival} us, before the one ahead of it at {self.last_arrival} us")
        self.last_arrival = arrival
        self.free_at = start + ser
        self.bytes_sent += nbytes
        self.messages_sent += 1
        if start == now:        # idle link: what call_at would run inline
            self.trace.record(src, self._tx, frame)
        else:
            call_at(src, start + src.offset_us, partial(self.trace.record, src, self._tx, frame))
        received = Received(payload, nbytes, frame)
        if arrival <= now:
            # due now: delivered inline, with no timer, so not through in_flight;
            # put queues the handler's drain after the sender's step
            self.trace.record(self.dst, self._rx, frame)
            self.bytes_delivered += nbytes
            self.messages_delivered += 1
            self.rx.put(received)
        else:
            self.in_flight.append(received)
            call_at(self.dst, arrival + self.dst.offset_us, self._arrive)
        return self.free_at + src.offset_us

    def _arrive(self) -> None:
        # timers of one link fire in send order: arrivals never decrease, and
        # equal ones fire in push order
        received = self.in_flight.popleft()
        self.trace.record(self.dst, self._rx, received.frame)
        self.bytes_delivered += received.nbytes
        self.messages_delivered += 1
        self.rx.arrive(received)


# --- node graph ----------------------------------------------------------------

NODE_NAMES = ("stm32", "gap8", "esp32", "host")

# Every link a scenario builds, by key: (sender, receiver, interface). The
# camera hangs off the gap8 and its parallel interface is folded into the
# capture readout time.
LINKS = {
    "uart_down": ("gap8", "stm32", "uart"), "uart_up": ("stm32", "gap8", "uart"),
    "spi_up": ("gap8", "esp32", "spi"), "spi_down": ("esp32", "gap8", "spi"),
    "wifi_up": ("esp32", "host", "wifi"), "wifi_down": ("host", "esp32", "wifi"),
}


class NodeGraph:
    """The four platform nodes, each with its own loop and fixed clock offset.
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
        if (src, dst, kind) not in LINKS.values():
            raise ConfigError(f"no {kind} edge {src}->{dst} in the platform topology")
        link = Link(cfg, self.loops[src], self.loops[dst], self.trace, rng=self.rng)
        self.links[key] = link
        return link

    def loop(self, name: str) -> EventLoop:
        return self.loops[name]
