"""Buffer pools and stage scheduling: serialized vs. pipelined frame execution.

A pipeline is an ordered list of stages rooted at a producer. The producer
fills a frame buffer; every downstream stage is attached to that buffer when
it becomes Ready and releases it when its own work on the frame completes, so
the buffer returns to Free only after the last consumer is done. Stages bound
to distinct resources overlap across frames; one resource never runs two
stages at once. A ``Channel`` hands items to a reader task, or to a plain
handler when the reader blocks on nothing else.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional

from .coro import (EventLoop, coroutine, ctx_init, done, event_init, pulse,
                   sleep_until, spawn, wait, loop_run)
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

        Inside a coroutine, block by retrying after ``wait(pool.free_event, p)``.
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


def buffer_acquire(pool: BufferPool) -> Optional[FrameBuffer]:
    return pool.try_acquire()


def buffer_release(pool: BufferPool, buf: FrameBuffer) -> None:
    pool.release(buf)


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


class _ProducerRun:
    __slots__ = ("stage", "pool", "res", "out_chs", "frames", "nbytes",
                 "holders", "produced", "buf", "sleep_ev", "trace", "loop")

    def __init__(self, stage, pool, res, out_chs, frames, nbytes, holders, trace):
        self.stage = stage
        self.pool = pool
        self.res = res
        self.out_chs = out_chs
        self.frames = frames
        self.nbytes = nbytes
        self.holders = holders
        self.produced = 0
        self.buf = None
        self.sleep_ev = None
        self.trace = trace
        self.loop = pool.loop


@coroutine
def _producer_body(ctx):
    st = ctx.args
    loop = st.loop
    while True:
        if ctx.resume_point == 0:
            if st.produced == st.frames:
                return done()
            buf = st.pool.try_acquire()
            if buf is None:
                return wait(st.pool.free_event, then=0)
            st.buf = buf
            ctx.resume_point = 1
        if ctx.resume_point == 1:
            if not st.res.try_acquire():
                return wait(st.res.free_event, then=1)
            st.trace.emit(loop, Kind.STAGE_START, st.stage.name, st.produced)
            st.sleep_ev = sleep_until(loop, loop.now + st.stage.duration_for(st.nbytes),
                                      f"{st.stage.name}-hold")
            return wait(st.sleep_ev, then=2)
        # resume_point == 2: fill finished
        st.trace.emit(loop, Kind.STAGE_END, st.stage.name, st.produced)
        st.res.release()
        st.buf.fill()
        st.pool.mark_ready(st.buf, st.produced)
        for _ in range(max(st.holders, 1)):
            st.pool.attach(st.buf)
        if st.holders == 0:
            st.pool.release(st.buf)   # single-stage pipeline: nobody downstream
        for ch in st.out_chs:
            ch.put((st.produced, st.buf))
        st.produced += 1
        st.buf = None
        ctx.resume_point = 0


class _ConsumerRun:
    __slots__ = ("stage", "pool", "res", "in_ch", "out_chs", "frames", "nbytes",
                 "count", "tok", "sleep_ev", "trace", "loop")

    def __init__(self, stage, pool, res, in_ch, out_chs, frames, nbytes, trace):
        self.stage = stage
        self.pool = pool
        self.res = res
        self.in_ch = in_ch
        self.out_chs = out_chs
        self.frames = frames
        self.nbytes = nbytes
        self.count = 0
        self.tok = None
        self.sleep_ev = None
        self.trace = trace
        self.loop = pool.loop


@coroutine
def _consumer_body(ctx):
    st = ctx.args
    loop = st.loop
    while True:
        if ctx.resume_point == 0:
            tok = st.in_ch.try_get()
            if tok is None:
                return wait(st.in_ch.ready_event, then=0)
            st.tok = tok
            ctx.resume_point = 1
        if ctx.resume_point == 1:
            if not st.res.try_acquire():
                return wait(st.res.free_event, then=1)
            st.trace.emit(loop, Kind.STAGE_START, st.stage.name, st.tok[0])
            st.sleep_ev = sleep_until(loop, loop.now + st.stage.duration_for(st.nbytes),
                                      f"{st.stage.name}-hold")
            return wait(st.sleep_ev, then=2)
        frame, buf = st.tok
        st.trace.emit(loop, Kind.STAGE_END, st.stage.name, frame)
        st.res.release()
        st.pool.release(buf)
        for ch in st.out_chs:
            ch.put(st.tok)
        st.count += 1
        st.tok = None
        if st.count == st.frames:
            return done()
        ctx.resume_point = 0


class _SerialRun:
    __slots__ = ("plan", "pool", "resources", "frames", "nbytes", "frame",
                 "stage_idx", "buf", "sleep_ev", "trace", "loop")

    def __init__(self, plan, pool, resources, frames, nbytes, trace):
        self.plan = plan
        self.pool = pool
        self.resources = resources
        self.frames = frames
        self.nbytes = nbytes
        self.frame = 0
        self.stage_idx = 0
        self.buf = None
        self.sleep_ev = None
        self.trace = trace
        self.loop = pool.loop


@coroutine
def _serialized_body(ctx):
    st = ctx.args
    loop = st.loop
    while True:
        if ctx.resume_point == 0:
            if st.frame == st.frames:
                return done()
            buf = st.pool.try_acquire()
            if buf is None:
                return wait(st.pool.free_event, then=0)
            st.buf = buf
            st.stage_idx = 0
            ctx.resume_point = 1
        if ctx.resume_point == 1:
            stage = st.plan[st.stage_idx][0]
            res = st.resources[stage.resource]
            if not res.try_acquire():
                return wait(res.free_event, then=1)
            st.trace.emit(loop, Kind.STAGE_START, stage.name, st.frame)
            st.sleep_ev = sleep_until(loop, loop.now + stage.duration_for(st.nbytes),
                                      f"{stage.name}-hold")
            return wait(st.sleep_ev, then=2)
        stage = st.plan[st.stage_idx][0]
        st.trace.emit(loop, Kind.STAGE_END, stage.name, st.frame)
        st.resources[stage.resource].release()
        if st.stage_idx == 0:
            st.buf.fill()
            st.pool.mark_ready(st.buf, st.frame)
            st.pool.attach(st.buf)
        st.stage_idx += 1
        if st.stage_idx < len(st.plan):
            ctx.resume_point = 1
            continue
        st.pool.release(st.buf)
        st.buf = None
        st.frame += 1
        ctx.resume_point = 0


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

    if mode == SERIALIZED:
        spawn(loop, ctx_init(_serialized_body,
                             _SerialRun(plan, pool, resources, frames, nbytes, trace),
                             label="serialized"))
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

    holders = len(plan) - 1
    producer_stage = plan[0][0]
    spawn(loop, ctx_init(_producer_body,
                         _ProducerRun(producer_stage, pool, resources[producer_stage.resource],
                                      out_chs[0], frames, nbytes, holders, trace),
                         label=producer_stage.name))
    for i, (stage, _, _) in enumerate(plan):
        if i == 0:
            continue
        spawn(loop, ctx_init(_consumer_body,
                             _ConsumerRun(stage, pool, resources[stage.resource],
                                          in_ch_of[i], out_chs[i], frames, nbytes, trace),
                             label=stage.name))
    loop_run(loop)
    return trace


def stage_end_gaps(trace: TraceLog, stage_name: str, skip: int = 10) -> list:
    """Inter-completion gaps of one stage from frame ``skip`` onward."""
    times = [t for _, t in sorted(trace.frames_of(Kind.STAGE_END, stage_name))]
    steady = times[skip:]
    return [b - a for a, b in zip(steady, steady[1:])]
