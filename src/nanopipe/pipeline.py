"""Buffer pools and stage scheduling: serialized vs. pipelined frame execution.

A closed loop is a chain of step lists that starts at a producer. The
producer fills a frame buffer and holds it once it is Ready; that hold
passes down the chain with the frame, and the last list releases it, so the
buffer returns to Free only when the frame is done. ``spawn_chain`` is the
one place that turns a chain into tasks, and so the one place where the mode
matters: serialized, one task runs the whole chain per frame; pipelined,
each list runs on its own task, so they overlap across frames. A ``Channel``
hands items to a reader task, or to a plain handler when the reader blocks
on nothing else.

Every task is a list of steps that the loop runs itself (``coro.spawn_task``),
built from the shared steps here and in ``cpx``: ``stage``, ``ready``,
``publish`` and the rest. A camera is ``next_frame``, ``grab`` (a Free
buffer, or drop the frame) and a ``capture`` stage.
"""
from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import Callable, Optional

from .coro import END, RESTART, EventLoop, event_init, guard, loop_run, pulse, spawn_task
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

    __slots__ = ("id", "state", "sequence", "users", "copy_count", "data")

    def __init__(self, buf_id: int, capacity: int):
        self.id = buf_id
        self.state = BufferState.FREE
        self.sequence = -1
        self.users = 0
        self.copy_count = 0
        self.data = bytearray(capacity)

    def fill(self) -> None:
        """Producer copy into the buffer; the one copy a frame is allowed."""
        if self.state != BufferState.FILLING:
            raise UsageError(f"fill of buffer {self.id} in state {self.state.name}")
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
            if self.free_event.waiters:
                pulse(self.loop, self.free_event)


def pool_create(loop: EventLoop, n: int, capacity: int) -> BufferPool:
    return BufferPool(loop, n, capacity)


class Channel:
    """Unbounded FIFO handoff on one loop. A task reads it with ``try_get``
    and ``ready_event``; a reader that blocks on nothing else is a handler,
    run by a drain that joins the ready queue where a woken reader task would,
    or runs in place when it would run next anyway (``arrive``)."""

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

    def arrive(self, item) -> None:
        """``put`` for an item that a timer callback delivers off this loop's
        ready queue (``vnode.Link``); the handler may take it in place.

        With a handler, no drain queued and nothing else ready on the loop,
        the drain that ``put`` would queue is the very next thing the loop
        runs, so handing the item to the handler here, then draining what it
        put, keeps the order. A delivery due at the send instant, made inside
        the sender's step, must ``put``: its drain comes after that step.
        """
        if self.handler is None or self.drain_queued or self.loop.ready:
            self.put(item)
            return
        self.drain_queued = True
        self.handler(item)
        if self.items:
            self._drain()
        self.drain_queued = False

    def _drain(self) -> None:
        items, handler = self.items, self.handler
        while items:
            handler(items.popleft())
        self.drain_queued = False

    def try_get(self):
        return self.items.popleft() if self.items else None

    def __len__(self):
        return len(self.items)


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


def grab(t):
    """Take a Free buffer from ``t.pool`` for the frame, or lose the frame:
    record its ``Drop`` and start over with the next one."""
    buf = t.pool.try_acquire()
    if buf is None:
        t.trace.emit(t.loop, Kind.DROP, "capture", t.frame)
        t.frame += 1
        return RESTART
    t.buf = buf


@guard
def take(t):
    """Take the next ``(frame, buffer)`` pair from the channel ``t.inbox``."""
    if not t.inbox.items:
        return t.inbox.ready_event
    t.frame, t.buf = t.inbox.items.popleft()


def retire(t):
    """Release this task's hold on the frame's buffer; go on to the next frame."""
    t.pool.release(t.buf)
    t.frame += 1


def stage(trace: TraceLog, loop: EventLoop, name: str, duration_us: int) -> list:
    """The two steps of one stage of a task on ``loop``: record its start in
    ``trace`` and sleep ``duration_us``, then record its end. The key codes
    of both records are looked up here, when the stage is built."""
    start_code = trace.key(loop.name, Kind.STAGE_START, name)
    end_code = trace.key(loop.name, Kind.STAGE_END, name)

    def start(t):
        trace.record(loop, start_code, t.frame)
        return loop.now + duration_us

    def end(t):
        trace.record(loop, end_code, t.frame)
    return [start, end]


def ready(t):
    """The producing stage is done: the frame is Ready and this task holds it."""
    t.buf.fill()
    t.buf.make_ready(t.frame)
    t.pool.attach(t.buf)


def pass_on(t):
    """Hand the frame, and this task's hold on its buffer, to the next task."""
    for ch in t.outs:
        ch.put((t.frame, t.buf))


def publish(t):
    """``ready``, then ``pass_on``; go on to the next frame."""
    ready(t)
    pass_on(t)
    t.frame += 1


def spawn_chain(loop: EventLoop, mode: str, source: list, works: list, close=(), labels=(),
                **fields) -> None:
    """Spawn the tasks that run each frame through the steps of ``source``,
    which fill its buffer, then through each step list of ``works``; every
    task starts at frame 0 with ``fields`` as its state. This is the one
    place where the mode decides the tasks.

    Serialized, one task runs ``[*source, ready, *works..., retire, *close]``:
    ``close`` is what the frame still waits for once its buffer is free,
    before the next frame starts. Pipelined, each list is its own task,
    labelled by ``labels``, source first; channels hand the frame and the
    hold on its buffer down the chain (``publish``, ``take``, ``pass_on``),
    the last task releases it, and ``close`` is not run. A chain with no
    ``works`` is one task in either mode. The tasks are spawned last to
    first, so each reader comes before its writer in the ready queue.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown pipeline mode {mode!r}")
    fields.update(frame=0, buf=None)
    if mode == SERIALIZED or not works:
        steps = [step for work in works for step in work]
        spawn_task(loop, "serialized", [*source, ready, *steps, retire, *close], **fields)
        return
    chans = [Channel(loop, f"{label}-in") for label in labels[1:]]
    for i in reversed(range(len(works))):
        last = i == len(works) - 1
        spawn_task(loop, labels[i + 1], [take, *works[i], retire if last else pass_on],
                   inbox=chans[i], outs=chans[i + 1:i + 2], **fields)
    spawn_task(loop, labels[0], [*source, publish], outs=chans[:1], **fields)


def pipeline_run(stages: list, mode: str, pool: BufferPool, frames: int) -> TraceLog:
    """Run ``frames`` frames through a chain of ``(name, duration_us)`` stages
    and return the full trace.

    Serialized mode runs each frame's stages back to back on one task.
    Pipelined mode runs one task per stage (``spawn_chain``). The producer is
    self-paced by buffer availability, so throughput is bounded by the
    slowest stage (pool >= 2) or collapses to the serialized period (pool of
    1).
    """
    if not stages:
        raise ConfigError("pipeline needs at least one stage")
    loop = pool.loop
    trace = loop._trace
    if trace is None:
        trace = loop._trace = TraceLog()
    steps = [stage(trace, loop, name, duration_us) for name, duration_us in stages]
    spawn_chain(loop, mode, [acquire, *steps[0]], steps[1:],
                labels=[name for name, _ in stages], pool=pool, frames=frames)
    loop_run(loop)
    return trace
