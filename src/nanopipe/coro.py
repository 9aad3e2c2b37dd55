"""Stackless cooperative tasks over a virtual-time event loop.

A task is a list of steps (``spawn_task``), plain functions of the task's
state, run by ``Task._dispatch`` with the step index as the resume point. A
step goes on to the next step, waits for an ``Event``, sleeps until a
loop-local deadline in µs (on the timer heap itself), yields, or ends.

Every entry of a ready queue, a waiter list or the timer heap is a
zero-argument callable bound once by its owner; a task's is ``resume``, its
bound ``_dispatch``. So a task runs on its own loop, whichever loop woke it.

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
    period and t0 (frame n starts at t0 + n * period), link, queue and nbytes
    (where and what a task sends), and trace; reply and receipts serve one kind
    of task; a handler, which blocks on nothing, keeps its own in a closure.
    With slots, not a dict per task, a shared step reads every task's fields alike.

    The runtime state is exactly what ``pack()`` serializes: the resume point,
    the state, and the step table's address; ``next``, ``after_wait`` and
    ``resume`` (``_dispatch`` bound once) are derived. The fields are user data
    and are left out of the bookkeeping budget; ``label`` only names the task
    in errors.
    """

    __slots__ = ("state", "resume_point", "label", "loop", "resume", "steps", "next", "after_wait",
                 "frame", "frames", "count", "buf", "pool", "inbox", "outs", "period", "t0",
                 "link", "queue", "nbytes", "reply", "trace", "receipts")

    def __init__(self, loop: "EventLoop", label: str, steps, **fields):
        self.state = TaskState.START
        self.resume_point = 0
        self.label = label
        self.loop = loop
        self.resume = self._dispatch
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

    def _dispatch(self) -> None:
        """Run the steps from the resume point until the task waits or ends."""
        if self.state is not _SUSPENDED and self.state is not _START:
            self._transition(_RUNNING)           # unreachable legally: reject loudly
        self.state = _RUNNING
        steps, nxt = self.steps, self.next
        i = self.resume_point
        while True:
            out = steps[i](self)
            if out is None:
                i = nxt[i]
            elif out.__class__ is int:
                # sleep: the task itself goes on the heap, where an Event would
                i = self.after_wait[i]
                loop = self.loop
                clock = loop.clock
                due = out - loop.offset_us
                if due > clock.now:
                    clock._timer_seq += 1
                    heappush(clock.timers, (due, clock._timer_seq, loop, self.resume))
                    break
            elif out.__class__ is Event:
                i = self.after_wait[i]
                if not out.completed:
                    out.waiters.append(self.resume)
                    break
            elif out is END:
                self.state = _ENDED
                return
            elif out is RESTART:
                i = 0
            elif out is YIELD:
                i = self.after_wait[i]
                self.loop.ready.append(self.resume)     # a suspension that is ready again at once
                break
            else:
                raise UsageError(f"step {steps[i].__name__} of {self.label!r} returned {out!r}")
        self.resume_point = i
        self.state = _SUSPENDED

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
        # sweeps[i]: the ready queues of loops[i:], the drain order of a pass from loop i
        self.sweeps: list[list] = []
        self.timers: list = []      # heap of (global_deadline, seq, loop, callable)
        self._timer_seq = 0


class EventLoop:
    """FIFO ready queue on a shared clock, whose heap holds the loop's timers.

    Every entry of the ready queue is a zero-argument callable bound once by
    its owner: a task's ``resume``, a due ``call_at`` callback, a channel
    drain or woken router egress (``RouterQueue.serve``).
    """

    def __init__(self, clock=None, name: str = "node0", offset_us: int = 0):
        self.clock = clock if clock is not None else VirtualClock()
        self.index = len(self.clock.loops)
        self.clock.loops.append(self)
        self.name = name
        self.offset_us = offset_us
        ready = self.ready = deque()
        self.clock.readies.append(ready)
        for sweep in self.clock.sweeps:
            sweep += [ready]        # in place, and no method call for a profile to count
        self.clock.sweeps += [[ready]]

    @property
    def now(self) -> int:
        """This node's local clock: global time plus the configured offset."""
        return self.clock.now + self.offset_us


def spawn(loop: EventLoop, task: Task) -> None:
    """Enqueue a Start-state task; it runs on the next loop pass."""
    if task.state != TaskState.START:
        raise UsageError(f"spawn of non-Start task {task.label!r} "
                         f"(state {TaskState(task.state).name})")
    loop.ready.append(task.resume)


def schedule_completion(loop: EventLoop, ev: Event, deadline_us: int) -> None:
    """Complete ``ev`` when ``loop``'s local clock reaches ``deadline_us``.

    A deadline at or before now completes the event at once. Otherwise a
    ``call_at`` callback completes it and runs its waiters in place, in order,
    where ``event_complete`` would queue them (a timer due alone finds every
    queue empty). A wait on ``ev`` ahead of the callback at its instant waits.
    """
    if deadline_us <= loop.now:
        event_complete(loop, ev)
        return

    def complete() -> None:
        waiters = [*ev.waiters]
        ev.waiters.clear()
        event_complete(loop, ev)        # with no waiters: the flag and the double check
        for resume in waiters:
            resume()
    call_at(loop, deadline_us, complete)


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
                for ready in sweep:
                    while ready:
                        ready.popleft()()
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
                loop.ready.append(due)
                if not timers or timers[0][0] > now:
                    break
                _, _, loop, due = heappop(timers)
        else:
            due()


def loop_run(loop: EventLoop) -> None:
    """Run the loop's whole clock group until idle (``run_all``)."""
    run_all(loop.clock)
