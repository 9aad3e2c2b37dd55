"""Stackless cooperative tasks over a virtual-time event loop.

A task is a list of steps (``spawn_task``), plain functions of the task's
state. The loop runs them itself (``_dispatch``), with the step index as the
resume point. A step goes on to the next step, waits for an ``Event``, sleeps
until a loop-local deadline in µs (the sleeping task waits on the timer heap
itself, with no ``Event``), yields to the back of the ready queue, or ends.

Only code that blocks on something is a task: a camera capture is a stage of
the task that waits for each frame. Links, which make no decisions, and router
egress, which waits only on its own queue and link, run as callbacks off the
timer heap; a channel reader that blocks on nothing else runs as a handler
(``Channel.consume``), whose drain is queued, or runs in place when a link
delivery off the heap finds nothing else ready (``vnode.Link``).

Several loops (one per simulated node, each with a fixed clock offset) may
share one virtual clock and its one timer heap, whose entries each remember
their loop. At one instant the due timers fire in (global deadline, push
order), then the loops drain in registration order, round after round, until
no ready queue holds work; a timer due alone runs in place (``run_all``, one
drain block of which serves its first pass and every instant).
"""
from __future__ import annotations

import struct
from collections import deque
from enum import IntEnum
from heapq import heappop, heappush
from typing import Callable

from .errors import UsageError


class TaskState(IntEnum):
    START = 0
    RUNNING = 1
    SUSPENDED = 2
    ENDED = 3


# The only transitions a task may take. Everything else is rejected.
_ALLOWED_TRANSITIONS = frozenset({
    (TaskState.START, TaskState.RUNNING),
    (TaskState.RUNNING, TaskState.SUSPENDED),
    (TaskState.RUNNING, TaskState.ENDED),
    (TaskState.SUSPENDED, TaskState.RUNNING),
})

# hot-path aliases: class-attribute lookups cost on every dispatch; a member
# is one object, so the checks compare by identity, not through int's compare
_START = TaskState.START
_RUNNING = TaskState.RUNNING
_SUSPENDED = TaskState.SUSPENDED
_ENDED = TaskState.ENDED

END = object()          # a step's return: the task is over
RESTART = object()      # a step's return: go back to the first step
YIELD = object()        # a step's return: go to the back of the ready queue


def guard(step: Callable) -> Callable:
    """Mark a step that checks a condition: it runs again after its wait."""
    step.guard = True
    return step


class Task:
    """A step-list task: its state, its resume point (the index of the step to
    run next), its steps and loop, and the fields its steps keep across waits.
    Shared steps read frame, frames and count (the frame or round at hand, how
    many, how many done), buf and pool, inbox and outs (channels in and out),
    period and t0 (frame n starts at t0 + n * period), and link, queue and
    nbytes (where and what a task sends); the rest serve one kind of task. With
    slots, not a dict per task, a shared step reads every task's fields alike.

    The runtime state is exactly what ``pack()`` serializes: the resume point,
    the state, and the step table's address; ``next`` and ``after_wait`` are
    derived from the steps. The fields are user data and are left out of the
    bookkeeping budget; ``label`` only names the task in errors.
    """

    __slots__ = ("state", "resume_point", "label", "loop", "steps", "next", "after_wait",
                 "frame", "frames", "count", "buf", "pool", "inbox", "outs", "period", "t0",
                 "link", "queue", "nbytes", "reply", "trace", "receipts",
                 "up", "down", "samples", "t1")

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

    # resume_point:u16, state:u8, the step table as a u64 address
    _PACK = struct.Struct("<HBQ")
    BOOKKEEPING_BYTES = _PACK.size

    def _transition(self, new: TaskState) -> None:
        if (self.state, new) not in _ALLOWED_TRANSITIONS:
            raise UsageError(
                f"illegal transition {TaskState(self.state).name} -> {new.name} for {self.label!r}")
        self.state = new

    def pack(self) -> bytes:
        """Serialize the bookkeeping state (not the fields)."""
        return self._PACK.pack(self.resume_point, self.state,
                               id(self.steps) & 0xFFFFFFFFFFFFFFFF)

    @classmethod
    def unpack(cls, raw: bytes, loop: "EventLoop", label: str, steps, **fields) -> "Task":
        """Rebuild a task from packed bookkeeping plus its steps and fields.

        The packed step-table address is informational; the steps are re-bound
        from the caller, the way a pointer is relocated on restore.
        """
        point, state, _addr = cls._PACK.unpack(raw)
        task = cls(loop, label, steps, **fields)
        task.resume_point = point
        task.state = TaskState(state)
        return task


def spawn_task(loop: "EventLoop", label: str, steps, **fields) -> Task:
    """Run ``steps`` as one task on ``loop``, with ``fields`` as its state.

    A step returns None to go on to the next step; an ``Event`` to wait for,
    an ``int`` loop-local deadline to sleep until, or ``YIELD`` to go to the
    back of the ready queue, before the next step (or before running again,
    for a ``guard``); ``END``; or ``RESTART``. A completed event or a deadline
    at or before now goes on without suspending.
    """
    task = Task(loop, label, steps, **fields)
    spawn(loop, task)
    return task


class Event:
    """Completion token with a FIFO waiter list.

    Initialization is decoupled from waiting: waiting on an already-completed
    event resumes the waiter immediately. Completing an event resumes every
    registered waiter exactly once, in registration order.
    """

    __slots__ = ("completed", "waiters", "label")

    def __init__(self, label: str = "event"):
        self.completed = False
        self.waiters: deque = deque()
        self.label = label


def event_init(label: str = "event") -> Event:
    return Event(label)


def event_complete(loop: "EventLoop", ev: Event) -> None:
    """Complete ``ev`` and move all waiters to ``loop``'s ready queue, FIFO."""
    if ev.completed:
        raise UsageError(f"double complete of event {ev.label!r} without reset")
    ev.completed = True
    loop.ready.extend(ev.waiters)
    ev.waiters.clear()


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
        ev.completed = False        # re-armed: completing it left no waiters


class VirtualClock:
    """Global simulated time in integer microseconds, shared by loops, and
    the one timer heap of those loops."""

    def __init__(self):
        self.now = 0
        self.loops: list[EventLoop] = []
        self.readies: list[deque] = []      # the loops' ready queues, in registration order
        # sweeps[i]: (loop, ready queue) of loops[i:], the drain order of a pass from loop i
        self.sweeps: list[list] = []
        self.timers: list = []      # heap of (global_deadline, seq, loop, Event, Task or callable)
        self._timer_seq = 0


class EventLoop:
    """FIFO ready queue on a shared clock, whose heap holds the loop's timers.

    The ready queue holds tasks, due ``call_at`` callbacks, channel drains and
    woken router egress (``RouterQueue.serve``).
    """

    def __init__(self, clock=None, name: str = "node0", offset_us: int = 0):
        self.clock = clock if clock is not None else VirtualClock()
        self.index = len(self.clock.loops)
        self.clock.loops.append(self)
        self.name = name
        self.offset_us = offset_us
        self.ready: deque = deque()
        self.clock.readies.append(self.ready)
        entry = (self, self.ready)
        for sweep in self.clock.sweeps:
            sweep += [entry]        # in place, and no method call for a profile to count
        self.clock.sweeps += [[entry]]

    @property
    def now(self) -> int:
        """This node's local clock: global time plus the configured offset."""
        return self.clock.now + self.offset_us


def spawn(loop: EventLoop, task: Task) -> None:
    """Enqueue a Start-state task; it runs on the next loop pass."""
    if task.state != TaskState.START:
        raise UsageError(f"spawn of non-Start task {task.label!r} "
                         f"(state {TaskState(task.state).name})")
    loop.ready.append(task)


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
    clock = loop.clock
    due = deadline_us - loop.offset_us
    if due <= clock.now:
        fn()
        return
    clock._timer_seq += 1
    heappush(clock.timers, (due, clock._timer_seq, loop, fn))


def _dispatch(loop: EventLoop, task: Task) -> None:
    """Run ``task``'s steps from its resume point until it waits or ends."""
    if task.state is not _START and task.state is not _SUSPENDED:
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
        elif out is YIELD:
            i = task.after_wait[i]
            loop.ready.append(task)     # a suspension that is ready again at once
            break
        else:
            raise UsageError(f"step {steps[i].__name__} of {task.label!r} returned {out!r}")
    task.resume_point = i
    task.state = _SUSPENDED


def run_all(clock) -> None:
    """Drive every loop on ``clock`` until idle: no work is ready and no timer left.

    Virtual time only advances when all ready queues are empty, jumping to the
    earliest timer deadline. The timers due then fire in (global deadline, push
    order), and the loops drain in registration order, round after round, until
    no queue holds work. A timer due alone runs in place, as the first thing
    that sweep would run, and the sweep goes on from its loop.
    """
    timers, readies, sweeps = clock.timers, clock.readies, clock.sweeps
    start = 0
    while True:
        if any(readies):
            sweep = sweeps[start]
            while True:
                for loop, ready in sweep:
                    while ready:
                        item = ready.popleft()
                        if item.__class__ is Task:
                            _dispatch(loop, item)
                        else:
                            item()
                if not any(readies):
                    break
                sweep = sweeps[0]
        if not timers:
            break
        now, _, loop, due = heappop(timers)     # no timer is ever pushed at or before now
        clock.now = now
        start = loop.index
        if timers and timers[0][0] <= now:
            # several due: each fills its loop's ready queue, in the heap's order
            start = 0
            while True:
                if due.__class__ is Event:
                    event_complete(loop, due)
                else:
                    loop.ready.append(due)      # a sleeping task, or a call_at callback
                if not timers or timers[0][0] > now:
                    break
                _, _, loop, due = heappop(timers)
        elif due.__class__ is Event:
            event_complete(loop, due)
        elif due.__class__ is Task:
            _dispatch(loop, due)
        else:
            due()


def loop_run(loop: EventLoop) -> None:
    """Run the loop's whole clock group until idle (``run_all``)."""
    run_all(loop.clock)
