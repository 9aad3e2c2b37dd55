"""Buffer lifecycle and serialized vs. pipelined scheduling."""

import itertools
import random

import pytest

from nanopipe.coro import (END, RESTART, EventLoop, Task, TaskState, VirtualClock, call_at,
                           event_complete, event_init, guard, loop_run, pulse, spawn,
                           spawn_task)
from nanopipe.errors import ConfigError, UsageError
from nanopipe.pipeline import (PIPELINED, SERIALIZED, BufferState, Channel, acquire,
                               pipeline_run, pool_create, spawn_chain, stage)
from nanopipe.trace import Kind, TraceLog

from test_coro import timer_event


def fresh_loop():
    return EventLoop(VirtualClock(), name="n0")


# --- independent scheduling oracle -----------------------------------------
# Plain recurrence over stage start/end times; shares no code with the
# event-driven engine. The frame's buffer is freed when the last stage ends.

def chain_receipts(durations, pool, frames):
    k = len(durations)
    end = [[0] * frames for _ in range(k)]
    for f in range(frames):
        avail = 0 if f < pool else end[k - 1][f - pool]
        s = max(end[0][f - 1] if f else 0, avail)
        end[0][f] = s + durations[0]
        for i in range(1, k):
            s = max(end[i - 1][f], end[i][f - 1] if f else 0)
            end[i][f] = s + durations[i]
    return end[k - 1]


def serialized_receipts(durations, frames):
    total = sum(durations)
    return [(f + 1) * total for f in range(frames)]


def sim_receipts(durations, mode, pool_n, frames):
    loop = fresh_loop()
    pool = pool_create(loop, pool_n, 1000)
    names = ["capture", "inference", "tx", "s3", "s4"]
    trace = pipeline_run(list(zip(names, durations)), mode, pool, frames)
    last = names[len(durations) - 1]
    return [t for _, t in sorted(zip(*trace.columns(Kind.STAGE_END, last)))], trace


# --- pool lifecycle ---------------------------------------------------------

def test_pool_create_double_buffer():
    loop = fresh_loop()
    pool = pool_create(loop, 2, 25600)
    assert len(pool.buffers) == 2
    assert len(pool.buffers) * pool.capacity == 2 * 25600
    assert all(b.state == BufferState.FREE for b in pool.buffers)


def test_pool_create_zero_rejected():
    with pytest.raises(ConfigError):
        pool_create(fresh_loop(), 0, 100)


def test_acquire_release_round_trip():
    loop = fresh_loop()
    pool = pool_create(loop, 1, 64)
    buf = pool.try_acquire()
    assert buf.state == BufferState.FILLING
    pool.mark_ready(buf, 0)
    pool.attach(buf)
    pool.release(buf)
    assert buf.state == BufferState.FREE
    assert buf.copy_count == 1


def test_acquire_exhausted_returns_none():
    loop = fresh_loop()
    pool = pool_create(loop, 1, 64)
    assert pool.try_acquire() is not None
    assert pool.try_acquire() is None


def test_second_acquire_suspends_until_release():
    loop = fresh_loop()
    pool = pool_create(loop, 1, 64)
    got = []

    def grabber(tag):
        @guard
        def grab(t):
            buf = pool.try_acquire()
            if buf is None:
                return pool.free_event
            got.append((tag, loop.now))
            pool.mark_ready(buf, 0)
            pool.attach(buf)
            pool.release(buf)
            return END
        return [grab]

    spawn_task(loop, "first", grabber("first"))
    spawn_task(loop, "second", grabber("second"))
    # hold the only buffer before running, releasing it via a timed task
    held = pool.try_acquire()
    loop_run(loop)
    assert got == []        # both suspended on the empty pool
    pool.mark_ready(held, 99)
    pool.attach(held)
    pool.release(held)
    loop_run(loop)
    assert [g[0] for g in got] == ["first", "second"]


def test_double_release_rejected():
    loop = fresh_loop()
    pool = pool_create(loop, 1, 64)
    buf = pool.try_acquire()
    pool.mark_ready(buf, 0)
    pool.attach(buf)
    pool.release(buf)
    with pytest.raises(UsageError):
        pool.release(buf)


def test_random_schedules_never_violate_state_cycle():
    # 10^4 random valid operations plus deliberate invalid ones
    loop = fresh_loop()
    pool = pool_create(loop, 4, 16)
    rng = random.Random(1234)
    seq = 0
    for _ in range(10_000):
        by_state = {}
        for b in pool.buffers:
            by_state.setdefault(b.state, []).append(b)
        ops = []
        if BufferState.FREE in by_state:
            ops.append("acquire")
        if BufferState.FILLING in by_state:
            ops.append("ready")
        if BufferState.READY in by_state or BufferState.IN_USE in by_state:
            ops.append("attach")
        if BufferState.IN_USE in by_state:
            ops.append("release")
        op = rng.choice(ops)
        if op == "acquire":
            buf = pool.try_acquire()
            assert buf.state == BufferState.FILLING
        elif op == "ready":
            buf = rng.choice(by_state[BufferState.FILLING])
            pool.mark_ready(buf, seq)
            seq += 1
        elif op == "attach":
            buf = rng.choice(by_state.get(BufferState.READY, [])
                             + by_state.get(BufferState.IN_USE, []))
            pool.attach(buf)
            assert buf.state == BufferState.IN_USE and buf.users >= 1
        else:
            buf = rng.choice(by_state[BufferState.IN_USE])
            users_before = buf.users
            pool.release(buf)
            assert buf.users == users_before - 1
        # invalid op in a random state must always be rejected
        victim = rng.choice(pool.buffers)
        if victim.state != BufferState.FILLING:
            with pytest.raises(UsageError):
                pool.mark_ready(victim, -1)
        if victim.state != BufferState.IN_USE:
            with pytest.raises(UsageError):
                pool.release(victim)
    free_listed = {b.id for b in pool._free}
    assert free_listed == {b.id for b in pool.buffers if b.state == BufferState.FREE}


# --- pipeline timing --------------------------------------------------------

def test_serialized_period_is_sum_of_durations():
    receipts, _ = sim_receipts([8000, 20830, 6000], SERIALIZED, 2, 25)
    assert receipts == serialized_receipts([8000, 20830, 6000], 25)
    gaps = [b - a for a, b in zip(receipts[10:], receipts[11:])]
    assert all(g == 34830 for g in gaps)          # 34.83 ms -> 28.7 Hz


def test_pipelined_pool2_period_is_max_duration():
    receipts, _ = sim_receipts([8000, 20830, 6000], PIPELINED, 2, 25)
    assert receipts == chain_receipts([8000, 20830, 6000], 2, 25)
    gaps = [b - a for a, b in zip(receipts[10:], receipts[11:])]
    assert all(g == 20830 for g in gaps)          # 20.83 ms -> 48 Hz, inference-bound


def test_single_stage_identity_between_modes():
    ser, _ = sim_receipts([5000], SERIALIZED, 1, 20)
    pip, _ = sim_receipts([5000], PIPELINED, 1, 20)
    assert ser == pip


def test_pool1_pipelined_collapses_to_serialized():
    ser, _ = sim_receipts([8000, 20830, 6000], SERIALIZED, 1, 20)
    pip, _ = sim_receipts([8000, 20830, 6000], PIPELINED, 1, 20)
    assert ser == pip


@pytest.mark.parametrize("durations", list(itertools.permutations([1000, 2000, 8000], 3)))
@pytest.mark.parametrize("pool_n", [1, 2, 3])
def test_pipelined_matches_recurrence_oracle(durations, pool_n):
    receipts, _ = sim_receipts(list(durations), PIPELINED, pool_n, 20)
    assert receipts == chain_receipts(list(durations), pool_n, 20)


def test_unknown_mode_rejected():
    loop = fresh_loop()
    pool = pool_create(loop, 2, 100)
    with pytest.raises(ConfigError):
        pipeline_run([("a", 10)], "warp", pool, 5)


def _chain_log(mode, works):
    """Run two frames through ``spawn_chain`` with a 10 µs fill and a close
    that sleeps 100 µs; log (step, frame, free buffers, time) as steps run."""
    loop = fresh_loop()
    pool = pool_create(loop, 1, 10)
    log = []

    def note(tag):
        def step(t):
            log.append((tag, t.frame, len(pool._free), loop.now))
        return step

    def close(t):
        note("close")(t)
        return loop.now + 100

    trace = TraceLog()
    fill = stage(trace, loop, "fill", 10)
    spawn_chain(loop, mode, [acquire, *fill], [[note(w)] for w in works],
                [close], labels=("fill", *works), trace=trace, pool=pool, frames=2)
    loop_run(loop)
    return log


def test_serialized_chain_closes_each_frame_after_its_release():
    log = _chain_log(SERIALIZED, ["a", "b"])
    # the close runs with the buffer free and the frame count moved on, and
    # the next frame's fill starts only when the close is over
    assert log == [("a", 0, 0, 10), ("b", 0, 0, 10), ("close", 1, 1, 10),
                   ("a", 1, 0, 120), ("b", 1, 0, 120), ("close", 2, 1, 120)]


def test_pipelined_chain_never_closes():
    log = _chain_log(PIPELINED, ["a", "b"])
    assert log == [("a", 0, 0, 10), ("b", 0, 0, 10), ("a", 1, 0, 20), ("b", 1, 0, 20)]


def test_pipelined_chain_queues_its_tasks_last_to_first(dispatches):
    _chain_log(PIPELINED, ["a", "b"])
    first_dispatches = dict.fromkeys(label for _, _, label in dispatches.log)
    assert list(first_dispatches) == ["b", "a", "fill"]


# --- channel readers -----------------------------------------------------------

def _channel_reader(ch, on_item):
    @guard
    def read(t):
        item = ch.try_get()
        if item is None:
            return ch.ready_event
        on_item(item)
    return [read]


def _tagged_waiter(ev, tag, log):
    def record(t):
        log.append(tag)
        return END
    return [lambda t: ev, record]


@pytest.mark.parametrize("reader", ["task", "handler"])
def test_channel_handler_runs_where_a_reader_task_would(reader, dispatches):
    # the put at t=100 comes before the "tick" task woken at the same instant,
    # yet a reader task runs after it; and the reader handles "b", put while it
    # handles "a", before the task that "a" woke. A handler must do the same.
    loop = EventLoop(VirtualClock(), name="n0")
    ch = Channel(loop, "in")
    log = []
    woken = event_init("woken")

    def on_item(item):
        log.append(item)
        if item == "a":
            event_complete(loop, woken)
            ch.put("b")

    if reader == "task":
        spawn_task(loop, "reader", _channel_reader(ch, on_item))
    else:
        ch.consume(on_item)
    call_at(loop, 100, lambda: ch.put("a"))
    spawn_task(loop, "tick", _tagged_waiter(timer_event(loop, 100), "tick", log))
    spawn_task(loop, "woken", _tagged_waiter(woken, "woken", log))
    loop_run(loop)
    assert log == ["tick", "a", "b", "woken"]
    assert dispatches[loop] == (6 if reader == "task" else 4)   # the handler is no task


def test_channel_takes_one_reader():
    loop = EventLoop(VirtualClock(), name="n0")
    ch = Channel(loop, "in")
    ch.consume(lambda item: None)
    with pytest.raises(UsageError):
        ch.consume(lambda item: None)
    waited = Channel(loop, "in2")
    spawn_task(loop, "reader", _channel_reader(waited, lambda item: None))
    loop_run(loop)
    with pytest.raises(UsageError):
        waited.consume(lambda item: None)


# --- step-list tasks -------------------------------------------------------------

def test_guard_step_runs_again_after_its_wait():
    # woken at 100 with its condition still false, the guard checks and waits
    # again; at 200 it passes and the task goes on
    loop = EventLoop(VirtualClock(), name="n0")
    cond = event_init("cond")
    log = []
    is_open = []

    @guard
    def until_open(t):
        log.append(("check", loop.now))
        if not is_open:
            return cond

    def after(t):
        log.append(("after", loop.now))
        return END

    spawn_task(loop, "guarded", [until_open, after])
    call_at(loop, 100, lambda: pulse(loop, cond))

    def open_at_200():
        is_open.append(True)
        pulse(loop, cond)
    call_at(loop, 200, open_at_200)
    loop_run(loop)
    assert log == [("check", 0), ("check", 100), ("check", 200), ("after", 200)]


def test_other_wait_resumes_at_the_next_step(dispatches):
    loop = EventLoop(VirtualClock(), name="n0")
    log = []

    def sleep(t):
        assert not log, "the step before a plain wait ran again"
        log.append(("sleep", loop.now))
        return timer_event(loop, 50)

    def done_already(t):
        log.append(("done-already", loop.now))
        ev = event_init("done")
        event_complete(loop, ev)
        return ev                       # completed: the next step runs at once

    def after(t):
        log.append(("after", loop.now))
        return END

    spawn_task(loop, "sleeper", [sleep, done_already, after])
    loop_run(loop)
    assert log == [("sleep", 0), ("done-already", 50), ("after", 50)]
    assert dispatches == {loop: 2}


def test_end_and_restart_markers():
    loop = EventLoop(VirtualClock(), name="n0")
    log = []

    def count(t):
        assert t.count < 3, "the task went on past END"
        t.count += 1
        log.append(t.count)
        if t.count == 3:
            return END

    def restart(t):
        log.append("restart")
        return RESTART

    def never(t):
        raise AssertionError("a step after RESTART ran")

    spawn_task(loop, "counter", [count, restart, never], count=0)
    loop_run(loop)
    assert log == [1, "restart", 2, "restart", 3]


def test_last_step_wraps_to_the_first():
    loop = EventLoop(VirtualClock(), name="n0")

    times = []

    def tick(t):
        if len(times) == 3:
            return END
        return timer_event(loop, loop.now + 10)

    def record(t):
        assert len(times) < 3, "the last step did not wrap to the first"
        times.append(loop.now)

    spawn_task(loop, "ticker", [tick, record])
    loop_run(loop)
    assert times == [10, 20, 30]


@pytest.mark.parametrize("ahead", [-5, 0])
def test_due_deadline_goes_on_without_suspending(ahead, dispatches):
    loop = fresh_loop()
    loop.clock.now = 100
    log = []

    def sleep(t):
        return loop.now + ahead         # already due: no suspension, no heap push

    def after(t):
        log.append((loop.now, loop.clock._timer_seq, len(loop.clock.timers)))
        return END

    spawn_task(loop, "due", [sleep, after])
    loop_run(loop)
    assert log == [(100, 0, 0)]
    assert dispatches.log == [(100, "n0", "due")]


def test_guard_returning_a_deadline_runs_again_after_it():
    loop = EventLoop(VirtualClock(), name="n0")
    log = []

    @guard
    def poll(t):
        log.append(("poll", loop.now))
        if loop.now < 30:
            return loop.now + 10

    def after(t):
        log.append(("after", loop.now))
        return END

    spawn_task(loop, "poller", [poll, after])
    loop_run(loop)
    assert log == [("poll", 0), ("poll", 10), ("poll", 20), ("poll", 30), ("after", 30)]


@pytest.mark.parametrize("order", [("deadline", "event"), ("event", "deadline")])
def test_deadline_and_event_timer_due_together_fire_in_push_order(order):
    loop = EventLoop(VirtualClock(), name="n0")
    log = []
    sleeps = {"deadline": lambda t: 50, "event": lambda t: timer_event(loop, 50)}

    def woken(t):
        log.append((t.label, loop.now))
        return END

    for label in order:                 # each task pushes its timer when it first runs
        spawn_task(loop, label, [sleeps[label], woken])
    loop_run(loop)
    assert log == [(label, 50) for label in order]


def test_deadline_sleep_records_suspend_and_resume(dispatches):
    # the sleep suspends the task like a wait, and the heap resumes it at the deadline
    loop = fresh_loop()
    task = spawn_task(loop, "sleeper", [lambda t: 40, lambda t: END])
    at_39 = []
    call_at(loop, 39, lambda: at_39.append((task.state, dispatches.of("sleeper"))))
    loop_run(loop)
    assert at_39 == [(TaskState.SUSPENDED, [0])]
    assert task.state == TaskState.ENDED and dispatches.of("sleeper") == [0, 40]


def test_task_rejects_illegal_transitions():
    legal = {(TaskState.START, TaskState.RUNNING), (TaskState.RUNNING, TaskState.SUSPENDED),
             (TaskState.RUNNING, TaskState.ENDED), (TaskState.SUSPENDED, TaskState.RUNNING)}
    loop = EventLoop(VirtualClock(), name="n0")
    for src in TaskState:
        for dst in TaskState:
            task = Task(loop, "t", [lambda t: END])
            task.state = src
            if (src, dst) in legal:
                task._transition(dst)
            else:
                with pytest.raises(UsageError):
                    task._transition(dst)
    task = spawn_task(loop, "once", [lambda t: END])
    loop_run(loop)
    assert task.state == TaskState.ENDED
    with pytest.raises(UsageError):
        spawn(loop, task)


def test_step_returning_anything_else_is_rejected():
    for out in ("later", 4.2, True):    # an int is a deadline, but a bool or float is not
        loop = EventLoop(VirtualClock(), name="n0")
        spawn_task(loop, "bad", [lambda t, out=out: out])
        with pytest.raises(UsageError):
            loop_run(loop)
