"""Stackless cooperative tasks over a virtual-time event loop.

A task is a list of steps (``spawn_task``), plain functions of the task's
state. The loop runs them itself (``_dispatch``), with the step index as the
resume point. A step may return a loop-local deadline in µs to sleep until;
the sleeping task then waits on the timer heap itself, with no ``Event``.

A ``@coroutine`` body, which tests and the microbenchmarks use, is the
hand-written form: a function of its context that returns ``wait(event,
then)``, ``defer(then)`` or ``done()`` and dispatches on ``ctx.resume_point``.

Only code that blocks on something is a task. Devices that make no decisions
run as ``call_at`` callbacks off the timer heap, and a channel reader that
blocks on nothing else as a handler (``Channel.consume``).

Several loops (one per simulated node, each with a fixed clock offset) may
share one virtual clock and are driven together; see ``loop_run``. The timer
heap lives on the clock, one for all its loops; each entry remembers the loop
it completes its event, or queues its task or callback, on.

A loop emits runtime records (Spawn, Suspend, Resume, EventComplete) only
when it is given its own ``TraceLog``. The loops of a ``NodeGraph`` have none,
so a scenario trace holds the domain records of stages, links and drops only.
"""
from __future__ import annotations

import struct
from collections import deque
from enum import IntEnum
from heapq import heappop, heappush
from typing import Callable, Optional

from .errors import ConfigError, UsageError
from .trace import Kind, TraceLog


class TaskState(IntEnum):
    START = 0
    RUNNING = 1
    SUSPENDED = 2
    ENDED = 3


# The only transitions a context may take. Everything else is rejected.
_ALLOWED_TRANSITIONS = frozenset({
    (TaskState.START, TaskState.RUNNING),
    (TaskState.RUNNING, TaskState.SUSPENDED),
    (TaskState.RUNNING, TaskState.ENDED),
    (TaskState.SUSPENDED, TaskState.RUNNING),
})

# Step directive tags. Bodies return (tag, event, resume_point) tuples built
# by wait()/defer(), or the _DONE sentinel from done().
_WAIT = 0
_DEFER = 1
_DONE = object()

# hot-path aliases: class-attribute lookups cost on every dispatch
_START = TaskState.START
_RUNNING = TaskState.RUNNING
_SUSPENDED = TaskState.SUSPENDED
_ENDED = TaskState.ENDED

# Registry of coroutine bodies; a context stores only the 16-bit index.
_BODIES: list = []

# Context currently being dispatched (single-threaded, so a module global).
_CURRENT: Optional["CoroutineContext"] = None


def coroutine(fn: Callable) -> Callable:
    """Register a coroutine body and assign it a 16-bit id."""
    if len(_BODIES) >= 0xFFFF:
        raise ConfigError("coroutine registry full")
    fn.coroutine_id = len(_BODIES)
    _BODIES.append(fn)
    return fn


class CoroutineContext:
    """Per-instance bookkeeping for one running coroutine.

    The runtime state is exactly what ``pack()`` serializes: the coroutine id,
    the resume point, and the task state, plus the cached body reference that
    is re-derivable from the id. User data hangs off ``args`` and is excluded
    from the bookkeeping budget. ``label`` only names the task in traces.
    """

    __slots__ = ("coroutine_id", "resume_point", "state", "args", "resume_task", "label")

    # coroutine_id:u16, resume_point:u16, state:u8, resume_task as a u64 address
    _PACK = struct.Struct("<HHBQ")
    BOOKKEEPING_BYTES = _PACK.size

    def __init__(self, body, args=None, label=None):
        self.coroutine_id = body.coroutine_id
        self.resume_point = 0
        self.state = TaskState.START
        self.args = args
        self.resume_task = body
        self.label = label if label is not None else body.__name__

    def _transition(self, new: TaskState) -> None:
        if (self.state, new) not in _ALLOWED_TRANSITIONS:
            raise UsageError(
                f"illegal transition {TaskState(self.state).name} -> {new.name} for {self.label!r}")
        self.state = new

    def pack(self) -> bytes:
        """Serialize the full bookkeeping state (excluding user args)."""
        return self._PACK.pack(self.coroutine_id, self.resume_point, self.state,
                               id(self.resume_task) & 0xFFFFFFFFFFFFFFFF)

    @classmethod
    def unpack(cls, raw: bytes, args=None, label=None) -> "CoroutineContext":
        """Rebuild a context from packed bookkeeping plus its args reference.

        The packed body address is informational; the body is re-bound from
        the registry, the way a pointer is relocated on restore.
        """
        cid, point, state, _addr = cls._PACK.unpack(raw)
        ctx = cls(_BODIES[cid], args=args, label=label)
        ctx.resume_point = point
        ctx.state = TaskState(state)
        return ctx


def ctx_init(body, args=None, label=None) -> CoroutineContext:
    """Create a fresh Start-state context for a registered coroutine body."""
    if isinstance(body, int):
        if not 0 <= body < len(_BODIES):
            raise ConfigError(f"unknown coroutine id {body}")
        body = _BODIES[body]
    elif getattr(body, "coroutine_id", None) is None:
        raise ConfigError(f"{body!r} is not a registered coroutine body")
    return CoroutineContext(body, args=args, label=label)


END = object()          # a step's return: the task is over
RESTART = object()      # a step's return: go back to the first step


def guard(step: Callable) -> Callable:
    """Mark a step that checks a condition: it runs again after its wait."""
    step.guard = True
    return step


class Task:
    """A step-list task: its state, its resume point (the index of the step to
    run next), its steps and loop, and the fields its steps keep across waits.
    Shared steps read frame, frames and count (the frame or round at hand, how
    many, how many done), buf and pool, inbox and outs (channels in and out),
    period and t0 (frame n starts at t0 + n * period), and link, queue, pkt and
    nbytes (where and what a task sends); the rest serve one kind of task. With
    slots, not a dict per task, a shared step reads every task's fields alike.
    """

    __slots__ = ("state", "resume_point", "label", "loop", "steps", "next", "after_wait",
                 "frame", "frames", "count", "buf", "pool", "inbox", "outs", "period", "t0",
                 "readout_us", "compute_us", "link", "queue", "pkt", "nbytes", "reply",
                 "trace", "pending", "cam", "holders", "copy_ns_per_byte", "up", "down",
                 "samples", "t1")

    def __init__(self, loop: "EventLoop", label: str, steps, **fields):
        self.state = TaskState.START
        self.resume_point = 0
        self.label = label
        self.loop = loop
        self.steps = tuple(steps)
        self.next = tuple(range(1, len(self.steps))) + (0,)    # the last step wraps to the first
        self.after_wait = tuple(i if getattr(step, "guard", False) else self.next[i]
                                for i, step in enumerate(self.steps))
        for name, value in fields.items():
            setattr(self, name, value)

    _transition = CoroutineContext._transition


def spawn_task(loop: "EventLoop", label: str, steps, **fields) -> Task:
    """Run ``steps`` as one task on ``loop``, with ``fields`` as its state.

    A step returns None to go on to the next step; an ``Event`` to wait for,
    or an ``int`` loop-local deadline to sleep until, before the next step
    (or before running again, for a ``guard``); ``END``; or ``RESTART``. A
    completed event or a deadline at or before now goes on without suspending.
    """
    task = Task(loop, label, steps, **fields)
    spawn(loop, task)
    return task


def wait(event: "Event", then: int):
    """Suspend the running coroutine until ``event`` completes.

    If the event has already completed the dispatcher re-enters the body at
    ``then`` immediately, without recording a suspension.
    """
    if _CURRENT is None:
        raise UsageError("wait() called outside a coroutine body")
    return (_WAIT, event, then)


def defer(then: int):
    """Yield to the loop; the task is re-queued and resumes at ``then``."""
    if _CURRENT is None:
        raise UsageError("defer() called outside a coroutine body")
    return (_DEFER, None, then)


def done():
    """End the coroutine."""
    return _DONE


class Event:
    """Completion token with a FIFO waiter list.

    Initialization is decoupled from waiting: waiting on an already-completed
    event resumes the waiter immediately. Completing an event resumes every
    registered waiter exactly once, in registration order.
    """

    __slots__ = ("completed", "waiters", "completion_count", "label")

    def __init__(self, label: str = "event"):
        self.completed = False
        self.waiters: deque = deque()
        self.completion_count = 0
        self.label = label


def event_init(label: str = "event") -> Event:
    return Event(label)


def event_complete(loop: "EventLoop", ev: Event) -> None:
    """Complete ``ev`` and move all waiters to ``loop``'s ready queue, FIFO."""
    if ev.completed:
        raise UsageError(f"double complete of event {ev.label!r} without reset")
    ev.completed = True
    ev.completion_count += 1
    tr = loop._trace
    if tr is not None:
        tr.emit(loop, Kind.EVENT_COMPLETE, ev.label)
    waiters = ev.waiters
    ready = loop.ready
    while waiters:
        ctx = waiters.popleft()
        if tr is not None:
            tr.emit(loop, Kind.RESUME, ctx.label)
        ready.append(ctx)


def event_reset(ev: Event) -> None:
    """Re-arm a completed event so it can be completed again."""
    if ev.waiters:
        raise UsageError(f"reset of event {ev.label!r} with pending waiters")
    ev.completed = False


def pulse(loop: "EventLoop", ev: Event) -> None:
    """Wake current waiters of a re-armed condition event, if any.

    The completed flag never sticks: waiters re-check their condition and
    wait again, so a pulse with no waiters is deliberately a no-op.
    """
    if ev.waiters:
        event_complete(loop, ev)
        event_reset(ev)


class VirtualClock:
    """Global simulated time in integer microseconds, shared by loops, and
    the one timer heap of those loops."""

    def __init__(self):
        self.now = 0
        self.loops: list[EventLoop] = []
        self.timers: list = []      # heap of (global_deadline, seq, loop, Event, Task or callable)
        self._timer_seq = 0


class EventLoop:
    """FIFO ready queue on a shared clock, whose heap holds the loop's timers.

    The ready queue holds tasks, coroutine contexts and due ``call_at`` callbacks.
    """

    def __init__(self, clock=None, name: str = "node0", offset_us: int = 0,
                 trace: Optional[TraceLog] = None):
        self.clock = clock if clock is not None else VirtualClock()
        self.clock.loops.append(self)
        self.name = name
        self.offset_us = offset_us
        self.ready: deque = deque()
        self._trace = trace
        self.dispatch_count = 0

    @property
    def now(self) -> int:
        """This node's local clock: global time plus the configured offset."""
        return self.clock.now + self.offset_us


def spawn(loop: EventLoop, ctx) -> None:
    """Enqueue a Start-state context or task; it runs on the next loop pass."""
    if ctx.state != TaskState.START:
        raise UsageError(f"spawn of non-Start context {ctx.label!r} "
                         f"(state {TaskState(ctx.state).name})")
    if loop._trace is not None:
        loop._trace.emit(loop, Kind.SPAWN, ctx.label)
    loop.ready.append(ctx)


def schedule_completion(loop: EventLoop, ev: Event, deadline_us: int) -> None:
    """Complete ``ev`` when ``loop``'s local clock reaches ``deadline_us``.

    A deadline at or before the current time completes the event immediately.
    """
    if deadline_us <= loop.now:
        event_complete(loop, ev)
        return
    clock = loop.clock
    clock._timer_seq += 1
    heappush(clock.timers, (deadline_us - loop.offset_us, clock._timer_seq, loop, ev))


def call_at(loop: EventLoop, deadline_us: int, fn: Callable[[], None]) -> None:
    """Call ``fn()`` when ``loop``'s local clock reaches ``deadline_us``.

    When the timer fires, ``fn`` joins the ready queue where a task woken by
    that timer would, so it runs in the same order against tasks woken at the
    same instant. A deadline at or before the current time calls ``fn`` at once.
    """
    if deadline_us <= loop.now:
        fn()
        return
    clock = loop.clock
    clock._timer_seq += 1
    heappush(clock.timers, (deadline_us - loop.offset_us, clock._timer_seq, loop, fn))


def sleep_until(loop: EventLoop, deadline_us: int, label: str = "timer") -> Event:
    """Event that completes when the loop's local clock reaches ``deadline_us``."""
    ev = Event(label)
    schedule_completion(loop, ev, deadline_us)
    return ev


def _dispatch(loop: EventLoop, task: Task) -> None:
    """Run ``task``'s steps from its resume point until it waits or ends."""
    loop.dispatch_count += 1
    if task.state != _START and task.state != _SUSPENDED:
        task._transition(_RUNNING)           # unreachable legally: reject loudly
    task.state = _RUNNING
    steps, nxt = task.steps, task.next
    i = task.resume_point
    while True:
        out = steps[i](task)
        if out is None:
            i = nxt[i]
        elif out.__class__ is int:
            # sleep: the task itself goes on the heap, where an Event would
            i = task.after_wait[i]
            clock = loop.clock
            due = out - loop.offset_us
            if due > clock.now:
                clock._timer_seq += 1
                heappush(clock.timers, (due, clock._timer_seq, loop, task))
                break
        elif out.__class__ is Event:
            i = task.after_wait[i]
            if not out.completed:
                out.waiters.append(task)
                break
        elif out is END:
            task.state = _ENDED
            return
        elif out is RESTART:
            i = 0
        else:
            raise UsageError(f"step {steps[i].__name__} of {task.label!r} returned {out!r}")
    task.resume_point = i
    task.state = _SUSPENDED
    if loop._trace is not None:
        loop._trace.emit(loop, Kind.SUSPEND, task.label)


def _dispatch_body(loop: EventLoop, ctx: CoroutineContext) -> None:
    global _CURRENT
    loop.dispatch_count += 1
    state = ctx.state
    if state != _START and state != _SUSPENDED:
        ctx._transition(_RUNNING)            # unreachable legally: reject loudly
    ctx.state = _RUNNING
    tr = loop._trace
    _CURRENT = ctx
    try:
        body = ctx.resume_task
        while True:
            step = body(ctx)
            if step is _DONE:
                ctx.state = _ENDED           # Running -> Ended, legal by construction
                return
            try:
                tag, ev, then = step
            except TypeError:
                raise UsageError(
                    f"coroutine {ctx.label!r} returned invalid step {step!r}") from None
            ctx.resume_point = then
            if tag == _WAIT:
                if ev.completed:
                    continue    # no suspension: re-enter at `then` right away
                ev.waiters.append(ctx)
                ctx.state = _SUSPENDED
                if tr is not None:
                    tr.emit(loop, Kind.SUSPEND, ctx.label)
                return
            # defer: a suspension that is immediately ready again
            ctx.state = _SUSPENDED
            if tr is not None:
                tr.emit(loop, Kind.SUSPEND, ctx.label)
                tr.emit(loop, Kind.RESUME, ctx.label)
            loop.ready.append(ctx)
            return
    finally:
        _CURRENT = None


def _drain(clock) -> None:
    loops = clock.loops
    progressed = True
    while progressed:
        progressed = False
        for loop in loops:
            ready = loop.ready
            while ready:
                item = ready.popleft()
                cls = item.__class__
                if cls is Task:
                    _dispatch(loop, item)
                elif cls is CoroutineContext:
                    _dispatch_body(loop, item)
                else:
                    item()
                progressed = True


def run_all(clock, until_time: Optional[int] = None) -> None:
    """Drive every loop on ``clock`` until idle, or until global ``until_time``.

    Virtual time only advances when all ready queues are empty, jumping to the
    earliest pending timer deadline. Runs are bit-deterministic: loops are
    serviced in registration order and all queues are FIFO.
    """
    timers = clock.timers
    while True:
        _drain(clock)
        if not timers or until_time is not None and timers[0][0] > until_time:
            if until_time is not None and until_time > clock.now:
                clock.now = until_time     # the clock never moves backwards
            return
        now = clock.now = max(clock.now, timers[0][0])
        # seq counts for the whole clock, so each loop's timers still fire in
        # its own (deadline, push order) and fill its ready queue as before
        while timers and timers[0][0] <= now:
            _, _, loop, due = heappop(timers)
            cls = due.__class__
            if cls is Event:
                event_complete(loop, due)
                continue
            if cls is Task and loop._trace is not None:
                loop._trace.emit(loop, Kind.RESUME, due.label)
            loop.ready.append(due)      # a sleeping task, or a call_at callback


def loop_run(loop: EventLoop, until: Optional[int] = None) -> None:
    """Run the loop's whole clock group until idle (``until=None``) or until
    the loop-local time ``until`` is reached."""
    run_all(loop.clock, None if until is None else until - loop.offset_us)


def join_all(loop: EventLoop, events: list) -> Event:
    """Event that completes once every input event has completed.

    An empty list completes immediately (degenerate case). The join fires
    exactly once, at the moment the last input completes.
    """
    out = Event("join")
    if not events:
        event_complete(loop, out)
        return out
    pending = deque(events)

    @guard
    def collect(t):
        while pending:
            if not pending[0].completed:
                return pending[0]
            pending.popleft()
        event_complete(loop, out)
        return END
    spawn_task(loop, "join", [collect])
    return out
