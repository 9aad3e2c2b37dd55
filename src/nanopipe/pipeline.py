"""Buffer pools and stage scheduling: serialized vs. pipelined frame execution.

A pipeline is an ordered list of stages rooted at a producer. The producer
fills a frame buffer; every downstream stage is attached to that buffer when
it becomes Ready and releases it when its own work on the frame completes, so
the buffer returns to Free only after the last consumer is done. Stages bound
to distinct resources overlap across frames; one resource never runs two
stages at once. A ``Channel`` hands items to a reader task, or to a plain
handler when the reader blocks on nothing else.

Every task is a list of steps that the loop runs itself (``coro.spawn_task``);
the shared steps here and in ``cpx`` build the stage runs below and every
task of the scenarios.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional

from .coro import END, EventLoop, event_init, guard, loop_run, pulse, spawn_task
from .errors import ConfigError, UsageError
from .trace import Kind, TraceLog

SERIALIZED = "serialized"
PIPELINED = "pipelined"
MODES = (SERIALIZED, PIPELINED)


class BufferState(IntEnum):
    FREE = 0
    FILLING = 1
    READY = 2
    IN_USE = 3


class FrameBuffer:
    """One reusable image buffer with a guarded Free/Filling/Ready/InUse cycle."""

    __slots__ = ("id", "capacity", "state", "sequence", "users", "copy_count", "data")

    def __init__(self, buf_id: int, capacity: int):
        self.id = buf_id
        self.capacity = capacity
        self.state = BufferState.FREE
        self.sequence = -1
        self.users = 0
        self.copy_count = 0
        self.data = bytearray(capacity)

    def fill(self, payload: Optional[bytes] = None) -> None:
        """Producer copy into the buffer; the one copy a frame is allowed."""
        if self.state != BufferState.FILLING:
            raise UsageError(f"fill of buffer {self.id} in state {self.state.name}")
        if payload is not None:
            if len(payload) > self.capacity:
                raise UsageError(f"payload {len(payload)} B exceeds capacity {self.capacity} B")
            self.data[:len(payload)] = payload
        self.copy_count += 1

    def begin_fill(self) -> None:
        if self.state != BufferState.FREE:
            raise UsageError(f"begin_fill of buffer {self.id} in state {self.state.name}")
        self.state = BufferState.FILLING

    def make_ready(self, sequence: int) -> None:
        if self.state != BufferState.FILLING:
            raise UsageError(f"make_ready of buffer {self.id} in state {self.state.name}")
        self.state = BufferState.READY
        self.sequence = sequence


class BufferPool:
    """Fixed set of frame buffers; acquisition suspends when none are Free."""

    def __init__(self, loop: EventLoop, n: int, capacity: int):
        if n < 1:
            raise ConfigError("buffer pool needs at least one buffer")
        self.loop = loop
        self.capacity = capacity
        self.buffers = [FrameBuffer(i, capacity) for i in range(n)]
        self._free: deque = deque(self.buffers)
        self.free_event = event_init("pool-free")

    def __len__(self):
        return len(self.buffers)

    @property
    def total_bytes(self) -> int:
        return len(self.buffers) * self.capacity

    def try_acquire(self) -> Optional[FrameBuffer]:
        """Take a Free buffer (now Filling), or None when the pool is exhausted.

        A task blocks in a ``guard`` step that returns ``pool.free_event``
        while this is None (see ``acquire``).
        """
        if not self._free:
            return None
        buf = self._free.popleft()
        buf.begin_fill()
        return buf

    def mark_ready(self, buf: FrameBuffer, sequence: int) -> None:
        buf.make_ready(sequence)

    def attach(self, buf: FrameBuffer) -> None:
        """Register one more consumer holding the Ready/InUse buffer."""
        if buf.state == BufferState.READY:
            buf.state = BufferState.IN_USE
        elif buf.state != BufferState.IN_USE:
            raise UsageError(f"attach to buffer {buf.id} in state {buf.state.name}")
        buf.users += 1

    def release(self, buf: FrameBuffer) -> None:
        """Drop one consumer; the buffer frees when the last one releases."""
        if buf.state != BufferState.IN_USE or buf.users < 1:
            raise UsageError(f"release of buffer {buf.id} in state {buf.state.name}")
        buf.users -= 1
        if buf.users == 0:
            buf.state = BufferState.FREE
            self._free.append(buf)
            pulse(self.loop, self.free_event)


def pool_create(loop: EventLoop, n: int, capacity: int) -> BufferPool:
    return BufferPool(loop, n, capacity)


class Channel:
    """Unbounded FIFO handoff on one loop. A task reads it with ``try_get``
    and ``ready_event``; a reader that blocks on nothing else is a handler."""

    __slots__ = ("loop", "items", "ready_event", "handler", "drain_queued")

    def __init__(self, loop: EventLoop, label: str = "chan"):
        self.loop = loop
        self.items: deque = deque()
        self.ready_event = event_init(label)
        self.handler = None
        self.drain_queued = False

    def put(self, item) -> None:
        self.items.append(item)
        if self.handler is None:
            pulse(self.loop, self.ready_event)
        elif not self.drain_queued:
            self.drain_queued = True
            self.loop.ready.append(self._drain)

    def consume(self, handler: Callable[[object], None]) -> None:
        """Pass every item put on the channel to ``handler(item)``, FIFO.

        A drain is queued where ``put`` would wake a reader task, the first
        one now, where ``spawn`` would queue it; so the handler runs in that
        task's order. A drain also handles the items put while it runs.
        """
        if self.handler is not None or self.ready_event.waiters:
            raise UsageError("channel already has a reader")
        self.handler = handler
        self.drain_queued = True
        self.loop.ready.append(self._drain)

    def _drain(self) -> None:
        items, handler = self.items, self.handler
        while items:
            handler(items.popleft())
        self.drain_queued = False

    def try_get(self):
        return self.items.popleft() if self.items else None

    def __len__(self):
        return len(self.items)


class ResourceBusy:
    """Cooperative single-server resource: one holder at a time, FIFO wakeup."""

    __slots__ = ("loop", "name", "busy", "free_event")

    def __init__(self, loop: EventLoop, name: str):
        self.loop = loop
        self.name = name
        self.busy = False
        self.free_event = event_init(f"res-{name}")

    def try_acquire(self) -> bool:
        if self.busy:
            return False
        self.busy = True
        return True

    def release(self) -> None:
        if not self.busy:
            raise UsageError(f"release of idle resource {self.name}")
        self.busy = False
        pulse(self.loop, self.free_event)


@dataclass(frozen=True)
class Stage:
    """One pipeline step bound to a single-server resource.

    Duration is a fixed time, a per-byte rate applied to the frame size, or
    the sum of both. Roles default to a simple chain: each stage consumes the
    previous stage's product.
    """
    name: str
    resource: str
    duration_us: int = 0
    ns_per_byte: float = 0.0
    consumes: Optional[str] = None
    produces: Optional[str] = None

    def duration_for(self, nbytes: int) -> int:
        d = self.duration_us
        if self.ns_per_byte:
            d += math.ceil(nbytes * self.ns_per_byte / 1000.0)
        return d


def _validate_stages(stages):
    if not stages:
        raise ConfigError("pipeline needs at least one stage")
    produced = {}
    plan = []
    prev_role = None
    for i, stage in enumerate(stages):
        role_out = stage.produces or stage.name
        if i == 0:
            if stage.consumes is not None:
                raise ConfigError("first stage must be the producer (consumes nothing)")
            role_in = None
        else:
            role_in = stage.consumes or prev_role
            if role_in not in produced:
                raise ConfigError(
                    f"stage {stage.name!r} consumes {role_in!r}, which no earlier stage "
                    f"produces; the stage graph must be a producer-rooted DAG")
        if role_out in produced:
            raise ConfigError(f"role {role_out!r} produced twice")
        produced[role_out] = i
        plan.append((stage, role_in, role_out))
        prev_role = role_out
    return plan


# shared steps; t.frame is the frame a task works on, t.buf its buffer

def next_frame(t):
    """End after ``t.frames`` frames; with a ``t.period``, wait for the next
    frame's start at ``t.t0 + t.frame * t.period``."""
    if t.frame == t.frames:
        return END
    if t.period:
        return t.t0 + t.frame * t.period


@guard
def acquire(t):
    """End after ``t.frames`` frames; else take a Free buffer from ``t.pool``."""
    if t.frame == t.frames:
        return END
    buf = t.pool.try_acquire()
    if buf is None:
        return t.pool.free_event
    t.buf = buf


@guard
def take(t):
    """Take the next ``(frame, buffer)`` pair from the channel ``t.inbox``."""
    item = t.inbox.try_get()
    if item is None:
        return t.inbox.ready_event
    t.frame, t.buf = item


def retire(t):
    """Release this task's hold on the frame's buffer; go on to the next frame."""
    t.pool.release(t.buf)
    t.frame += 1


def _stage_steps(stage: Stage, res: ResourceBusy, nbytes: int) -> list:
    """Hold the stage's resource, run the stage for its duration, free it."""
    @guard
    def hold(t):
        if not res.try_acquire():
            return res.free_event

    def run(t):
        t.trace.emit(t.loop, Kind.STAGE_START, stage.name, t.frame)
        return t.loop.now + stage.duration_for(nbytes)

    def end(t):
        t.trace.emit(t.loop, Kind.STAGE_END, stage.name, t.frame)
        res.release()
    return [hold, run, end]


def _ready(t):
    # the producing stage is done: the frame is Ready and this task holds it
    t.buf.fill()
    t.pool.mark_ready(t.buf, t.frame)
    t.pool.attach(t.buf)


def _publish(t):
    _ready(t)
    for _ in range(t.holders - 1):
        t.pool.attach(t.buf)                 # one hold per downstream stage
    if not t.holders:
        t.pool.release(t.buf)                # single-stage pipeline: nobody downstream
    for ch in t.outs:
        ch.put((t.frame, t.buf))
    t.frame += 1


def _pass_on(t):
    t.pool.release(t.buf)
    for ch in t.outs:
        ch.put((t.frame, t.buf))
    t.count += 1
    if t.count == t.frames:
        return END


def pipeline_run(stages: list, mode: str, pool: BufferPool, frames: int) -> TraceLog:
    """Run ``frames`` frames through the stages and return the full trace.

    Serialized mode runs each frame's stages back to back on one task.
    Pipelined mode runs one task per stage; the producer is self-paced by
    buffer availability, so throughput is bounded by the slowest resource
    (pool >= 2) or collapses to the serialized period (pool of 1).
    """
    if mode not in MODES:
        raise ConfigError(f"unknown pipeline mode {mode!r}")
    plan = _validate_stages(stages)
    loop = pool.loop
    trace = loop._trace
    if trace is None:
        trace = TraceLog()
        loop._trace = trace
    nbytes = pool.capacity
    resources = {}
    for stage, _, _ in plan:
        if stage.resource not in resources:
            resources[stage.resource] = ResourceBusy(loop, stage.resource)

    steps = {i: _stage_steps(stage, resources[stage.resource], nbytes)
             for i, (stage, _, _) in enumerate(plan)}
    if mode == SERIALIZED:
        serial = [acquire, *steps[0], _ready]
        for i in range(1, len(plan)):
            serial += steps[i]
        spawn_task(loop, "serialized", serial + [retire], trace=trace, pool=pool,
                   frames=frames, frame=0, buf=None)
        loop_run(loop)
        return trace

    # channel per (producer role -> consumer) edge
    out_chs = {i: [] for i in range(len(plan))}
    in_ch_of = {}
    role_owner = {role_out: i for i, (_, _, role_out) in enumerate(plan)}
    for i, (stage, role_in, _) in enumerate(plan):
        if i == 0:
            continue
        ch = Channel(loop, f"{stage.name}-in")
        in_ch_of[i] = ch
        out_chs[role_owner[role_in]].append(ch)

    spawn_task(loop, plan[0][0].name, [acquire, *steps[0], _publish], trace=trace,
               pool=pool, outs=out_chs[0], frames=frames, holders=len(plan) - 1,
               frame=0, buf=None)
    for i in range(1, len(plan)):
        spawn_task(loop, plan[i][0].name, [take, *steps[i], _pass_on], trace=trace,
                   pool=pool, inbox=in_ch_of[i], outs=out_chs[i], frames=frames, count=0)
    loop_run(loop)
    return trace


def stage_end_gaps(trace: TraceLog, stage_name: str, skip: int = 10) -> list:
    """Inter-completion gaps of one stage from frame ``skip`` onward."""
    times = [t for _, t in sorted(trace.frames_of(Kind.STAGE_END, stage_name))]
    steady = times[skip:]
    return [b - a for a, b in zip(steady, steady[1:])]
