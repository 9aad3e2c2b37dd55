"""Routed packet layer: wire framing, zero-copy handles, multi-buffer router.

Wire layout, frozen by golden vectors in the test suite:

    length:   2 B little-endian, counts route byte + function byte + payload
    route:    destination[7:5] | source[4:2] | last_fragment[1] | reserved[0]
    function: version[7:6] | function[5:0]
    payload:  up to 1022 B per fragment

That fragment layout is the wire codec's (``packet_encode``, ``packet_decode``).
The simulated path does not fragment: a message crosses a link whole, and the
router forwards it as one packet handle.

The router (the esp32 role) forwards packet handles between its interfaces
without touching payload bytes. It blocks on nothing, so it is no task: an
input link's handler routes each packet to an output queue, and the queue's
egress sends it on from callbacks on the router loop. Senders hold transmit
credits: a sender that finds the output queue full suspends until a slot
frees, so packets are never dropped under overload. Baseline mode reproduces
the single-buffer, copy-per-hop stack: queue depth 1 and one payload copy per
forward.
"""
from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .coro import (END, EventLoop, call_at, event_complete, event_init, guard,
                   loop_run, spawn_task)
from .errors import ConfigError, ProtocolError, UsageError
from .trace import Kind
from .vnode import Link, NodeGraph

MAX_FRAGMENT_PAYLOAD = 1022

NODE_IDS = {"stm32": 1, "esp32": 2, "host": 3, "gap8": 4}

FUNCTION_APP_STREAM = 5

ZEROCOPY = "zerocopy"
BASELINE = "baseline"
ROUTER_MODES = (ZEROCOPY, BASELINE)

_LEN = struct.Struct("<H")
_HEADER = struct.Struct("<HBB")
HEADER_BYTES = _HEADER.size     # length, route and function ahead of the payload


@dataclass(slots=True)
class CpxPacket:
    source: int
    destination: int
    function: int
    payload: object = b""               # bytes or a zero-copy memoryview
    meta: object = None                 # simulation-side bookkeeping, not on the wire
    last_fragment: bool = True
    version: int = 0
    copy_count: int = 0


def _check_header(src, dst, function, version):
    if not 0 <= src <= 7 or not 0 <= dst <= 7:
        raise ProtocolError(f"node ids must fit 3 bits: src={src} dst={dst}")
    if not 1 <= function <= 63:
        raise ProtocolError(f"function id {function} outside 1..63")
    if not 0 <= version <= 3:
        raise ProtocolError(f"version {version} outside 0..3")


def packet_encode(pkt: CpxPacket) -> bytes:
    src, dst, fn, ver = pkt.source, pkt.destination, pkt.function, pkt.version
    n = len(pkt.payload)
    if n > MAX_FRAGMENT_PAYLOAD:
        raise ProtocolError(
            f"payload {n} B exceeds {MAX_FRAGMENT_PAYLOAD} B per fragment")
    if not (0 <= src <= 7 and 0 <= dst <= 7 and 1 <= fn <= 63 and 0 <= ver <= 3):
        _check_header(src, dst, fn, ver)
    header = _HEADER.pack(2 + n, (dst << 5) | (src << 2) | (bool(pkt.last_fragment) << 1),
                          (ver << 6) | fn)
    pkt.copy_count += 1         # the payload bytes are copied into the frame
    return header + bytes(pkt.payload) if n else header


def packet_decode(data) -> CpxPacket:
    if len(data) < HEADER_BYTES:
        raise ProtocolError(f"frame of {len(data)} B is shorter than the {HEADER_BYTES} B minimum")
    (length,) = _LEN.unpack_from(data, 0)
    if length != len(data) - 2:
        raise ProtocolError(f"length field {length} disagrees with frame size {len(data)}")
    route = data[2]
    fn_byte = data[3]
    if route & 0x01:
        raise ProtocolError("reserved route bit set")
    pkt = CpxPacket(
        source=(route >> 2) & 0x7,
        destination=(route >> 5) & 0x7,
        function=fn_byte & 0x3F,
        last_fragment=bool(route & 0x02),
        version=(fn_byte >> 6) & 0x3,
        payload=memoryview(data)[HEADER_BYTES:],    # zero-copy view into the frame
    )
    _check_header(pkt.source, pkt.destination, pkt.function, pkt.version)
    return pkt


class RouterQueue:
    """Bounded per-output FIFO with sender-held transmit credits.

    With an output ``link``, the queue's egress serves it (``serve``): one
    packet at a time, in order, each after one payload copy of
    ``copy_ns_per_byte`` (``None``: no copy at all), and a packet's slot frees
    when its last byte has left the router. A freed slot wakes the oldest
    stalled sender and keeps its credit event, re-armed, for the next stall.
    """

    def __init__(self, loop: EventLoop, name: str, capacity: int, link: Optional[Link] = None,
                 copy_ns_per_byte: Optional[float] = None):
        if capacity < 1:
            raise ConfigError("router queue capacity must be >= 1")
        self.loop = loop
        self.name = name
        self.capacity = capacity
        self.credits = capacity
        self.items: deque = deque()
        self.link = link
        self.copy_ns_per_byte = copy_ns_per_byte
        self.sending: Optional[CpxPacket] = None
        self.idle = False           # the egress found the queue empty and waits
        self._credit_waiters: deque = deque()
        self._spare_events: list = []
        self._full_codes: dict = {}      # waiting loop -> its QueueFull key code (see reserve)
        # bound once: every egress wake and timer, and each baseline copy's, is one object
        self._serve_bound, self._send_bound = self.serve, self._send

    def try_reserve(self) -> bool:
        """Sender-side: claim a slot before transmitting toward this queue."""
        if self.credits == 0:
            return False
        self.credits -= 1
        return True

    def release_slot(self) -> None:
        if self.credits >= self.capacity:
            raise UsageError(f"credit overflow on queue {self.name}")
        self.credits += 1
        if self._credit_waiters:
            ev, waiter_loop = self._credit_waiters.popleft()
            # wake the sender on its own node, at the current instant
            event_complete(waiter_loop, ev)
            ev.completed = False        # re-armed: completing it left no waiters
            self._spare_events.append(ev)

    def enqueue(self, pkt: CpxPacket) -> None:
        if len(self.items) >= self.capacity:
            raise UsageError(f"queue {self.name} occupancy above capacity")
        self.items.append(pkt)
        if self.idle:
            self.idle = False
            self.loop.ready.append(self._serve_bound)

    def try_dequeue(self) -> Optional[CpxPacket]:
        return self.items.popleft() if self.items else None

    def serve(self) -> None:
        """The egress: free the slot of the packet whose last byte has left,
        then send the next packet, or wait idle for ``enqueue``."""
        if self.sending is not None:
            self.sending = None
            self.release_slot()
        if not self.items:
            self.idle = True
            return
        pkt = self.sending = self.items.popleft()
        if self.copy_ns_per_byte is None:
            self._send()
            return
        # baseline stack: one payload copy per hop, paid in time
        pkt.copy_count += 1
        copy_us = -(-int(len(pkt.payload) * self.copy_ns_per_byte) // 1000)
        call_at(self.loop, self.loop.now + copy_us, self._send_bound)

    def _send(self) -> None:
        pkt = self.sending
        last_byte_out = self.link.send(pkt, HEADER_BYTES + len(pkt.payload), frame=pkt.meta)
        call_at(self.loop, last_byte_out, self._serve_bound)


class Router:
    """Packet router on the esp32 node.

    Each input link's channel hands arriving packets straight to the router,
    and each output queue's egress (``RouterQueue.serve``) sends them on; in
    zerocopy mode ingress and egress overlap, so a stream's throughput is set
    by the slower of the two transfers rather than their sum.
    """

    def __init__(self, graph: NodeGraph, mode: str = ZEROCOPY, queue_capacity: int = 8,
                 copy_ns_per_byte: float = 0.0):
        if mode not in ROUTER_MODES:
            raise ConfigError(f"unknown router mode {mode!r}")
        self.loop = graph.loop("esp32")
        self.trace = graph.trace
        # the single-buffer baseline cannot hold more than one packet
        self.queue_capacity = 1 if mode == BASELINE else queue_capacity
        self.copy_ns_per_byte = copy_ns_per_byte if mode == BASELINE else None
        self.queues: dict = {}
        self._routes: dict = {}

    def attach_interface(self, name: str, in_link: Optional[Link], out_link: Optional[Link],
                         destinations: tuple = ()) -> RouterQueue:
        """Wire one interface: packets for ``destinations`` leave through it."""
        queue = RouterQueue(self.loop, name, self.queue_capacity, out_link,
                            self.copy_ns_per_byte)
        self.queues[name] = queue
        for dst in destinations:
            self._routes[dst] = queue
        if in_link is not None:
            in_link.rx.consume(self._ingress)
        if out_link is not None:
            self.loop.ready.append(queue._serve_bound)
        return queue

    def _ingress(self, msg) -> None:
        router_forward(self, msg.payload)


def router_forward(router: Router, pkt: CpxPacket) -> None:
    """Pick the output queue from the header and enqueue the packet handle.

    The payload is never touched; an unroutable destination goes to the error
    sink, a ``Drop`` record of ``router-error``.
    """
    queue = router._routes.get(pkt.destination)
    if queue is None:
        router.trace.emit(router.loop, Kind.DROP, "router-error")
        return
    queue.enqueue(pkt)


@guard
def reserve(t):
    """Take a transmit credit on ``t.queue``; when it is full, record the
    stall against ``t.frame`` in the one trace of the queue's stalls, and wait."""
    queue, loop = t.queue, t.loop
    if not queue.try_reserve():
        if loop not in queue._full_codes:
            queue._full_codes[loop] = t.trace.key(loop.name, Kind.QUEUE_FULL, queue.name)
        t.trace.record(loop, queue._full_codes[loop], t.frame)
        spare = queue._spare_events
        ev = spare.pop() if spare else event_init(f"{queue.name}-credit")
        queue._credit_waiters.append((ev, loop))
        return ev


# --- two-way clock-offset estimation -----------------------------------------

_PROBE_BYTES = 8


def _send_probe(t):
    if len(t.samples) == t.frames:
        return END
    t.t1 = t.loop.now
    t.up.send(b"probe", _PROBE_BYTES)


@guard
def _read_reply(t):
    msg = t.down.rx.try_get()
    if msg is None:
        return t.down.rx.ready_event
    t2 = t3 = msg.payload
    t.samples.append(((t2 - t.t1) + (t3 - t.loop.now)) / 2)


@guard
def _echo(t):
    # the reply carries the instant the probe came in, t2; sent at once, t3 is the same
    msg = t.up.rx.try_get()
    if msg is None:
        return END if t.count == t.frames else t.up.rx.ready_event
    t.down.send(t.loop.now, _PROBE_BYTES)
    t.count += 1


def estimate_clock_offset(up: Link, down: Link, rounds: int = 1) -> float:
    """Two-way timestamp exchange between adjacent nodes, out over ``up`` and
    back over ``down``, the link the other way.

    Returns the estimated clock offset of ``up``'s receiving node relative
    to its sending node in microseconds. With symmetric link latency the
    estimate is exact; an asymmetry of d microseconds biases it by d/2.
    """
    if rounds < 1:
        raise ConfigError("offset estimation needs at least one round")
    probe = spawn_task(up.src, f"offset-probe-{up.src.name}", [_send_probe, _read_reply],
                       up=up, down=down, frames=rounds, samples=[], t1=0)
    spawn_task(up.dst, f"offset-echo-{up.dst.name}", [_echo], up=up, down=down, frames=rounds,
               count=0)
    loop_run(up.src)
    return sum(probe.samples) / len(probe.samples)
