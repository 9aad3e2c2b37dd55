"""Virtual devices and links: camera timing, point-to-point links, the four-node graph.

A capture is the ``"capture"`` stage of the task that produces frames, which
takes a Free buffer or drops the frame (``pipeline.grab``). A trigger camera
captures when that task asks, a streaming one every frame period; this module
gives only the modes and how long a capture takes. Links make no decisions:
each serves one whole message at a time, in send order. A link is a FIFO server
worked out with arithmetic, ``start = max(now, free_at)``, that acts at the
instants it gives through timer callbacks rather than as a task.
``Link.send`` returns the time the last byte leaves the sender, for a sender
that waits for it, while delivery fires at the receiver ``base_latency +
serialization + injected_delay`` after the transfer started, which is what
lets consecutive hops overlap. Arrivals never fall behind send order, so each
delivery timer is one call that takes the head of the link's ``in_flight``
FIFO; a message due at the send instant skips it and is delivered inline. A
delivery runs the receiving handler in place when it would run next anyway.
A link looks up the trace key codes of its two records once.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappush
from typing import NamedTuple, Optional

from .coro import EventLoop, VirtualClock, call_at
from .errors import ConfigError, UsageError
from .pipeline import Channel
from .trace import Kind, TraceLog

TRIGGER = "trigger"
STREAMING = "streaming"

_new_tuple = tuple.__new__      # builds a NamedTuple without its own __new__

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


class Received(NamedTuple):
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
        self._serialization_us: dict = {}     # message size -> cfg.serialization_us
        self.free_at = src.clock.now    # global time the last queued byte leaves
        self.last_arrival = src.clock.now   # global time the last message arrives
        self._tx = trace.key(src.name, Kind.LINK_TX_START, cfg.name)
        self._rx = trace.key(dst.name, Kind.LINK_RX_END, cfg.name)
        self._arrive_bound = self._arrive   # bound once: every delivery timer is this object

    def send(self, payload, nbytes: int, frame: Optional[int] = None) -> int:
        """Queue ``payload`` as a message of ``nbytes`` bytes whose link records
        name ``frame``; it arrives as a ``Received`` on ``rx``.

        Returns the sender-local time at which its last byte leaves the
        sender. A message that would arrive before the one sent ahead of it,
        which only a delay lowered while the link is busy can cause, raises
        ``UsageError``.
        """
        if nbytes < 0:
            raise UsageError("negative message size")
        cfg = self.cfg
        src = self.src
        try:
            ser = self._serialization_us[nbytes]
        except KeyError:
            ser = self._serialization_us[nbytes] = cfg.serialization_us(nbytes)
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
        if start == now:        # idle link: what call_at would run inline
            self.trace.record(src, self._tx, frame)
        else:
            call_at(src, start + src.offset_us, partial(self.trace.record, src, self._tx, frame))
        received = _new_tuple(Received, (payload, nbytes, frame))
        if arrival <= now:
            # due now: delivered inline, with no timer, so not through in_flight;
            # put queues the handler's drain after the sender's step
            self.trace.record(self.dst, self._rx, frame)
            self.rx.put(received)
        else:
            # what call_at(dst, arrival + dst.offset_us, ...) would push
            self.in_flight.append(received)
            clock = src.clock
            clock._timer_seq += 1
            heappush(clock.timers, (arrival, clock._timer_seq, self.dst, self._arrive_bound))
        return self.free_at + src.offset_us

    def _arrive(self) -> None:
        """Deliver the head of ``in_flight`` (a link's timers fire in send order).
        With a handler on ``rx``, no drain queued and nothing else ready on the
        loop, the drain ``put`` would queue runs next: the handler runs here."""
        received = self.in_flight.popleft()
        self.trace.record(self.dst, self._rx, received[2])     # its frame
        rx = self.rx
        handler = rx.handler
        if handler is None or rx.drain_queued or self.dst.ready:
            rx.put(received)
            return
        rx.drain_queued = True
        handler(received)
        if rx.items:
            rx._drain()
        rx.drain_queued = False


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
    """The four platform nodes, each with its own loop and fixed clock offset,
    on one clock, and the trace of their domain records."""

    def __init__(self, offsets: Optional[dict] = None, rng=None):
        self.clock = VirtualClock()
        self.trace = TraceLog()
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
