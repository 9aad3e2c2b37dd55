"""Semantics of the stackless task runtime."""

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopipe import coro
from nanopipe.coro import (END, YIELD, Event, EventLoop, Task, TaskState, VirtualClock, call_at,
                           event_complete, event_init, event_reset, guard, loop_run,
                           schedule_completion, spawn, spawn_task)
from nanopipe.errors import UsageError
from nanopipe.pipeline import Channel
from nanopipe.trace import TraceLog
from nanopipe.vnode import Link, LinkConfig


def fresh_loop():
    return EventLoop(VirtualClock(), name="n0")


def timer_event(loop, deadline, label="timer"):
    """An event that completes when the loop's local clock reaches ``deadline``."""
    ev = Event(label)
    schedule_completion(loop, ev, deadline)
    return ev


# --- step lists used across tests ---

def noop():
    return [lambda t: END]


def recorder(log, tag):
    # appends its tag once and ends
    def record(t):
        log.append(tag)
        return END
    return [record]


def yields_n(left):
    # yields ``left`` times, then ends
    def step(t):
        nonlocal left
        if left > 0:
            left -= 1
            return YIELD
        return END
    return [step]


def single_waiter(ev, log):
    def before(t):
        log.append("before")
        return ev

    def after(t):
        log.append("after")
        return END
    return [before, after]


def timed_waiter(ev, log, tag, loop):
    # appends (tag, local time) once the event completes
    def record(t):
        log.append((tag, loop.now))
        return END
    return [lambda t: ev, record]


def two_phase(ev1, ev2, points):
    # waits two events in sequence, recording the resume points it passes
    def second(t):
        points.append(1)
        return ev2

    def third(t):
        points.append(2)
        return END
    return [lambda t: ev1, second, third]


def stepper(tag, total, log):
    # interleaving probe: appends (tag, step) and yields between steps
    step = 0

    def run(t):
        nonlocal step
        if step < total:
            log.append((tag, step))
            step += 1
            return YIELD
        return END
    return [run]


def test_task_fresh_state():
    loop = fresh_loop()
    task = Task(loop, "noop", noop())
    assert task.state == TaskState.START
    assert task.resume_point == 0


def test_spawn_and_run_to_ended():
    loop = fresh_loop()
    task = spawn_task(loop, "noop", noop())
    loop_run(loop)
    assert task.state == TaskState.ENDED


def test_two_instances_interleave_without_corruption():
    loop = fresh_loop()
    log = []
    a = spawn_task(loop, "a", stepper("a", 3, log))
    b = spawn_task(loop, "b", stepper("b", 3, log))
    loop_run(loop)
    # strict alternation: both progress one step per pass, no state leaking
    assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
    assert a.state == TaskState.ENDED and b.state == TaskState.ENDED


def test_spawn_order_is_execution_order():
    loop = fresh_loop()
    log = []
    for tag in ("t1", "t2", "t3"):
        spawn_task(loop, tag, recorder(log, tag))
    loop_run(loop)
    assert log == ["t1", "t2", "t3"]


def test_respawn_non_start_task_rejected():
    loop = fresh_loop()
    task = spawn_task(loop, "noop", noop())
    loop_run(loop)
    with pytest.raises(UsageError):
        spawn(loop, task)


def test_counting_oracle_1000_tasks_10_yields(dispatches):
    # each task is dispatched 10 times for its yields plus one terminal pass
    loop = fresh_loop()
    for _ in range(1000):
        spawn_task(loop, "y", yields_n(10))
    loop_run(loop)
    assert dispatches == {loop: 10_000 + 1000}


def test_event_complete_without_waiters_sets_flag_only():
    loop = fresh_loop()
    ev = event_init("e")
    event_complete(loop, ev)
    assert ev.completed
    assert not loop.ready


def test_double_complete_detected():
    loop = fresh_loop()
    ev = event_init("e")
    event_complete(loop, ev)
    with pytest.raises(UsageError):
        event_complete(loop, ev)
    event_reset(ev)
    event_complete(loop, ev)
    assert ev.completed
    with pytest.raises(UsageError):     # the reset re-armed it for one completion only
        event_complete(loop, ev)


def test_three_waiters_resumed_in_registration_order():
    loop = fresh_loop()
    ev = event_init("e")
    log = []
    tasks = [spawn_task(loop, f"w{i}", single_waiter(ev, log)) for i in range(3)]
    loop_run(loop)
    assert log == ["before", "before", "before"]
    event_complete(loop, ev)
    loop_run(loop)
    assert log[3:] == ["after", "after", "after"]
    assert list(ev.waiters) == []
    assert all(t.state == TaskState.ENDED for t in tasks)


def test_wait_on_completed_event_records_no_suspension(dispatches):
    loop = fresh_loop()
    ev = event_init("e")
    event_complete(loop, ev)
    log = []
    spawn_task(loop, "w", single_waiter(ev, log))
    loop_run(loop)
    assert log == ["before", "after"]
    assert dispatches.log == [(0, "n0", "w")]      # a suspension would take a second


def test_complete_before_wait_resumes_in_same_pass(dispatches):
    # completion happens first; the later waiter must not suspend at all
    loop = fresh_loop()
    ev = event_init("e")
    event_complete(loop, ev)
    log = []
    task = spawn_task(loop, "w", single_waiter(ev, log))
    loop_run(loop)
    assert dispatches.of("w") == [0]    # no suspension, no resumption: ran straight through
    assert task.state == TaskState.ENDED and not ev.waiters
    assert log == ["before", "after"]


def test_fork_join_records_two_distinct_suspension_points():
    loop = fresh_loop()
    ev1, ev2 = event_init("e1"), event_init("e2")
    points = []
    task = spawn_task(loop, "main", two_phase(ev1, ev2, points))
    loop_run(loop)
    event_complete(loop, ev1)
    loop_run(loop)
    event_complete(loop, ev2)
    loop_run(loop)
    assert points == [1, 2]
    assert len(set(points)) == 2
    assert task.state == TaskState.ENDED


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_n_waiters_suspended_and_resumed_exactly_once(n, dispatches):
    # each waiter runs once up to its wait and once after the completion
    loop = fresh_loop()
    ev = event_init("e")
    log = []
    tasks = [spawn_task(loop, f"w{i}", single_waiter(ev, log)) for i in range(n)]
    loop_run(loop)
    assert all(t.state == TaskState.SUSPENDED for t in tasks)
    event_complete(loop, ev)
    loop_run(loop)
    assert dispatches.log == [(0, "n0", f"w{i}") for i in range(n)] * 2
    assert all(t.state == TaskState.ENDED for t in tasks)


def test_exactly_once_resumption_counters(dispatches):
    # one completion, k waiters: one dispatch per (waiter, completion) after the first
    loop = fresh_loop()
    for round_no in range(3):
        ev = event_init(f"e{round_no}")
        for i in range(4):
            spawn_task(loop, f"r{round_no}w{i}", single_waiter(ev, []))
        loop_run(loop)
        event_complete(loop, ev)
        loop_run(loop)
    labels = [label for _, _, label in dispatches.log]
    resumes = [label for i, label in enumerate(labels) if label in labels[:i]]
    assert len(resumes) == 3 * 4
    assert len(set(resumes)) == 12


# --- fork-join ---

def timed_subtask(loop, name, dur, done_ev, log):
    # runs for ``dur`` of virtual time, then signals completion
    def start(t):
        log.append((name, "start", loop.now))
        return timer_event(loop, loop.now + dur, name)

    def end(t):
        log.append((name, "end", loop.now))
        event_complete(loop, done_ev)
        return END
    return [start, end]


def forkjoin_main(loop, d1, d2, ev1, ev2, log):
    # spawns two sub-tasks, keeps working, then waits for both to finish
    def fork(t):
        for name, dur, done_ev in (("task1", d1, ev1), ("task2", d2, ev2)):
            spawn_task(loop, name, timed_subtask(loop, name, dur, done_ev, log))
        log.append(("main", "forked", loop.now))
        return ev1

    def joined(t):
        log.append(("main", "joined", loop.now))
        return END
    return [fork, lambda t: ev2, joined]


def test_fork_join_main_waits_both_subtasks():
    loop = fresh_loop()
    log = []
    spawn_task(loop, "main", forkjoin_main(loop, 300, 120, event_init("done1"),
                                           event_init("done2"), log))
    loop_run(loop)
    # both sub-tasks ran in the background while main was suspended, and main
    # resumed only after the slower one finished
    assert ("main", "forked", 0) in log
    assert log[-1] == ("main", "joined", 300)
    assert ("task2", "end", 120) in log and ("task1", "end", 300) in log
    assert loop.now == 300


def join(loop, events):
    """An event that one task completes once every event in ``events`` has."""
    out = Event("join")
    pending = list(events)

    @guard
    def collect(t):
        while pending:
            if not pending[0].completed:
                return pending[0]
            pending.pop(0)
        event_complete(loop, out)
        return END
    spawn_task(loop, "join", [collect])
    return out


def test_join_of_completed_events():
    loop = fresh_loop()
    evs = [event_init("a"), event_init("b")]
    for ev in evs:
        event_complete(loop, ev)
    out = join(loop, evs)
    loop_run(loop)
    assert out.completed


def test_join_of_no_events_completes_at_once():
    loop = fresh_loop()
    out = join(loop, [])
    loop_run(loop)
    assert out.completed and loop.now == 0


def test_join_fork_join_timeline():
    # main forks two timed sub-tasks and proceeds only after both finish
    loop = fresh_loop()
    e1 = timer_event(loop, 100, "t1")
    e2 = timer_event(loop, 250, "t2")
    out = join(loop, [e1, e2])
    loop_run(loop)
    assert out.completed
    assert loop.now == 250


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
def test_join_fires_at_max_over_all_completion_orders(order):
    loop = fresh_loop()
    deadlines = [(i + 1) * 10 for i in order]   # completion times permuted
    evs = [timer_event(loop, d, f"t{i}") for i, d in enumerate(deadlines)]
    out = join(loop, evs)
    loop_run(loop)
    assert out.completed and loop.now == max(deadlines)
    with pytest.raises(UsageError):     # so the run completed out only once
        event_complete(loop, out)


# --- timers ---

def test_schedule_completion_now_is_immediate():
    loop = fresh_loop()
    ev = timer_event(loop, loop.now)
    assert ev.completed


def test_schedule_completion_past_is_immediate():
    loop = fresh_loop()
    loop.clock.now = 500
    ev = timer_event(loop, 100)
    assert ev.completed


def test_timers_fire_in_deadline_order():
    loop = fresh_loop()
    fired = []
    for tag, deadline in (("c", 30), ("a", 10), ("b", 20)):
        ev = timer_event(loop, deadline, f"t-{tag}")
        spawn_task(loop, tag, timed_waiter(ev, fired, tag, loop))
    loop_run(loop)
    assert fired == [("a", 10), ("b", 20), ("c", 30)]
    assert loop.now == 30


def test_call_at_runs_callbacks_at_their_deadlines_without_tasks(dispatches):
    loop = fresh_loop()
    fired = []
    for deadline in (30, 10, 20):
        call_at(loop, deadline, lambda d=deadline: fired.append((d, loop.now)))
    call_at(loop, 0, lambda: fired.append(("now", loop.now)))     # due: runs at once
    assert fired == [("now", 0)]
    loop_run(loop)
    assert fired[1:] == [(10, 10), (20, 20), (30, 30)]
    assert not dispatches


def test_call_at_callback_keeps_its_place_among_tasks_woken_at_the_same_instant():
    # a due callback runs where a task woken by the same timer would, so the
    # order at a tie follows the order the timers were set in
    loop = fresh_loop()
    log = []
    ev = timer_event(loop, 100, "first")
    call_at(loop, 100, lambda: log.append("callback"))
    spawn_task(loop, "w", single_waiter(ev, log))
    loop_run(loop)
    assert log == ["before", "after", "callback"]


def test_clock_wide_timer_heap_keeps_each_loops_order_at_shared_instants():
    # both loops' timers share the clock's heap and fall due at the same global
    # instants; each loop must still see its own (deadline, push order)
    clock = VirtualClock()
    loops = (EventLoop(clock, name="a", offset_us=0), EventLoop(clock, name="b", offset_us=300))
    rng = random.Random(5)
    ran, expected = [], []
    for push in range(80):
        index = rng.randrange(2)
        loop = loops[index]
        deadline = rng.choice((1000, 2000, 3000))          # global instant
        local = deadline + loop.offset_us
        tag = (deadline, index, push)
        if rng.random() < 0.5:
            ev = event_init(f"t{push}")
            spawn_task(loop, f"w{push}", timed_waiter(ev, ran, tag, loop))
            schedule_completion(loop, ev, local)
        else:
            call_at(loop, local, lambda lp=loop, t=tag: ran.append((t, lp.now)))
        expected.append((tag, local))
    loop_run(loops[1])
    assert clock.now == 3000 and not clock.timers
    for index in (0, 1):
        got = [entry for entry in ran if entry[0][1] == index]
        assert len(got) > 10
        assert got == sorted(entry for entry in expected if entry[0][1] == index)
    # each entry ran from its own loop's ready queue: at each instant the loops
    # drain in registration order
    assert ran == sorted(expected)


def test_a_task_runs_on_its_own_loop_whichever_loop_wakes_it():
    # a completion on loop a queues the waiter of loop b on a's ready queue;
    # the task still runs on b, so its sleep reads b's offset, not a's
    clock = VirtualClock()
    a, b = EventLoop(clock, name="a", offset_us=0), EventLoop(clock, name="b", offset_us=300)
    ev = event_init("e")
    woke = []
    spawn_task(b, "t", [lambda t: ev, lambda t: t.loop.now + 100,
                        lambda t: woke.append(clock.now) or END])
    call_at(a, 1000, lambda: event_complete(a, ev))
    loop_run(a)
    assert woke == [1100]


def test_a_timed_completion_completes_when_its_callback_runs():
    # schedule_completion's callback stands in b's ready queue; a task that a
    # callback on a, ahead of it at the same instant, starts must wait for it
    clock = VirtualClock()
    a, b = EventLoop(clock, name="a"), EventLoop(clock, name="b")
    ev, log = event_init("e"), []
    spawn_task(b, "w", [lambda t: ev, lambda t: log.append("w") or END])
    schedule_completion(b, ev, 100)
    call_at(a, 100, lambda: spawn_task(a, "late", [lambda t: ev,
                                                   lambda t: log.append("late") or END]))
    loop_run(a)
    assert log == ["w", "late"]


def sweep_run_all(clock):
    """``run_all`` as it was before a timer due alone ran in place: every due
    timer joins its loop's ready queue, and every instant ends on a round over
    all loops that finds no work. The reference for the order of ``run_all``."""
    timers = clock.timers
    while True:
        progressed = True
        while progressed:
            progressed = False
            for loop in clock.loops:
                ready = loop.ready
                while ready:
                    ready.popleft()()
                    progressed = True
        if not timers:
            return
        now = clock.now
        if timers[0][0] > now:
            now = clock.now = timers[0][0]
        while timers and timers[0][0] <= now:
            _, _, loop, due = heapq.heappop(timers)
            loop.ready.append(due)


def random_program(seed):
    """Run a seeded random program on 2-5 loops; return its execution log and
    its links' trace. Callbacks, channel handlers, event waiters and sleeping tasks each
    post work to any loop, earlier or later, at zero or non-zero delay; the
    delays fall on a 100 us grid, so several timers are often due at once."""
    rng = random.Random(seed)
    clock, tr = VirtualClock(), TraceLog()
    loops = [EventLoop(clock, name=f"n{i}", offset_us=rng.randrange(-500, 500))
             for i in range(rng.randint(2, 5))]
    log, budget = [], [60]

    def work(loop, tag):
        log.append((clock.now, loop.name, tag))
        for _ in range(rng.randint(0, 2)):
            if budget[0] > 0:
                budget[0] -= 1
                post(budget[0])

    def post(tag):
        target = rng.choice(loops)
        delay = rng.choice((0, 0, 100, 200, 300))
        at = target.now + delay
        kind = rng.randrange(4)
        if kind == 0:       # a call_at callback
            call_at(target, at, lambda: work(target, ("call", tag)))
        elif kind == 1:     # a channel handler, fed by a link of that delay
            link = Link(LinkConfig(f"l{tag}", 1, base_latency_us=delay), target, target, tr)
            link.rx = channels[target.index]
            link.send(tag, 0)
        elif kind == 2:     # a task waiting on an event
            ev = event_init(f"e{tag}")
            spawn_task(target, f"w{tag}", [lambda t: ev, lambda t: work(target, ("wait", tag)),
                                           lambda t: END])
            if rng.random() < 0.5:
                schedule_completion(target, ev, at)
            else:
                call_at(target, at, lambda: event_complete(target, ev))
        else:               # a sleeping task that may yield once
            spawn_task(target, f"s{tag}",
                       [lambda t: at, lambda t: YIELD if rng.random() < 0.3 else None,
                        lambda t: work(target, ("sleep", tag)), lambda t: END])

    channels = [Channel(loop, f"c{loop.name}") for loop in loops]
    for loop, chan in zip(loops, channels):
        chan.consume(lambda msg, lp=loop: work(lp, ("chan", msg[0])))
    for tag in range(-8, 0):
        post(tag)
    loop_run(loops[0])
    return log, list(tr.events)


def test_run_all_keeps_the_order_of_the_full_sweep(monkeypatch, dispatches):
    # run_all runs a lone due timer in place and starts the sweep at its loop;
    # that must be exactly the order of the sweep it replaces, also where the
    # entry run in place posts work to an earlier loop
    def run(seed):
        dispatches.log.clear()
        return random_program(seed), list(dispatches.log)

    programs = [run(seed) for seed in range(400)]
    monkeypatch.setattr(coro, "run_all", sweep_run_all)
    for seed, got in enumerate(programs):
        assert run(seed) == got, seed
    assert sum(len(log) for (log, _), _ in programs) > 400 * 30


def test_deterministic_trace_with_random_timers_and_tasks(dispatches):
    def run_once(seed):
        dispatches.log.clear()
        loop = fresh_loop()
        rng = random.Random(seed)
        for i in range(100):
            deadline = rng.randrange(0, 5000)
            spawn_task(loop, f"s{i}", [lambda t, d=deadline, i=i: timer_event(loop, d, f"tm{i}"),
                                       lambda t: END])
        for i in range(20):
            spawn_task(loop, f"y{i}", yields_n(rng.randrange(1, 5)))
        loop_run(loop)
        return list(dispatches.log)

    assert run_once(7) == run_once(7)
    assert run_once(7) != run_once(8)


# --- FIFO fairness ---

@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(6))))
def test_fifo_fairness_execution_matches_enqueue_order(order):
    loop = fresh_loop()
    log = []
    for i in order:
        spawn_task(loop, f"r{i}", recorder(log, i))
    loop_run(loop)
    assert log == list(order)


def tagged_waiter(ev, log, tag):
    # records its own tag on each side of the suspension
    def waiting(t):
        log.append(("waiting", tag))
        return ev

    def resumed(t):
        log.append(("resumed", tag))
        return END
    return [waiting, resumed]


def test_fifo_among_tasks_made_ready_at_same_instant():
    # all waiters of one event become ready together; they run in wait order
    loop = fresh_loop()
    ev = event_init("e")
    log = []
    for i in range(5):
        spawn_task(loop, f"w{i}", tagged_waiter(ev, log, i))
    loop_run(loop)
    assert log == [("waiting", i) for i in range(5)]
    event_complete(loop, ev)
    loop_run(loop)
    assert log[5:] == [("resumed", i) for i in range(5)]


# --- state machine exhaustiveness ---

def test_all_illegal_transitions_rejected():
    legal = {(TaskState.START, TaskState.RUNNING),
             (TaskState.RUNNING, TaskState.SUSPENDED),
             (TaskState.RUNNING, TaskState.ENDED),
             (TaskState.SUSPENDED, TaskState.RUNNING)}
    loop = fresh_loop()
    for src in TaskState:
        for dst in TaskState:
            task = Task(loop, "noop", noop())
            task.state = src
            if (src, dst) in legal:
                task._transition(dst)
                assert task.state == dst
            else:
                with pytest.raises(UsageError):
                    task._transition(dst)


def test_dispatch_of_an_ended_task_rejected():
    # a task resumed after it ended would run twice; the dispatcher refuses it
    loop = fresh_loop()
    task = spawn_task(loop, "once", noop())
    loop_run(loop)
    assert task.state == TaskState.ENDED
    loop.ready.append(task.resume)
    with pytest.raises(UsageError):
        loop_run(loop)


# --- yielding ---

def test_yield_requeues_behind_ready_tasks_and_goes_on_as_after_a_wait(dispatches):
    # a plain step goes on at the next step, a guard runs again
    loop = fresh_loop()
    log = []

    def first(t):
        log.append("first")
        return YIELD

    @guard
    def poll(t):
        log.append("poll")
        if log.count("poll") == 1:
            return YIELD

    def last(t):
        log.append("last")
        return END

    spawn_task(loop, "y", [first, poll, last])
    spawn_task(loop, "r", recorder(log, "other"))
    loop_run(loop)
    assert log == ["first", "other", "poll", "poll", "last"]
    # each yield ends a dispatch and queues the task behind the ready one
    assert [label for _, _, label in dispatches.log] == ["y", "r", "y", "y"]


# --- no stack retention ---

def _scribble(depth):
    # burns stack frames with throwaway locals between dispatches
    junk = [depth] * 8
    if depth:
        return _scribble(depth - 1) + junk[0]
    return 0


def stack_scribbler(left):
    def step(t):
        nonlocal left
        if left > 0:
            left -= 1
            _scribble(40)
            return YIELD
        return END
    return [step]


def test_behavior_is_pure_function_of_fields_and_resume_point():
    # the same tasks produce the same observable log whether or not other
    # tasks churn the shared (Python call) stack between their suspensions
    def run(with_scribblers):
        loop = fresh_loop()
        log = []
        for i in range(4):
            spawn_task(loop, f"s{i}", stepper(i, 5, log))
            if with_scribblers:
                spawn_task(loop, f"x{i}", stack_scribbler(5))
        loop_run(loop)
        return log

    plain = run(False)
    churned = run(True)
    assert [e for e in churned if isinstance(e, tuple)] == plain


def test_bookkeeping_packs_into_at_most_32_bytes():
    assert Task.BOOKKEEPING_BYTES <= 32
    loop = fresh_loop()
    task = Task(loop, "noop", noop())
    assert len(task.pack()) == Task.BOOKKEEPING_BYTES


def test_packed_task_round_trips_and_resumes_identically():
    # suspend a task, clone it from its packed bookkeeping + steps, swap the
    # clone into the waiter list, and check it finishes exactly like the
    # original would: the packed fields are the whole runtime state
    loop = fresh_loop()
    ev = event_init("e")
    log = []
    task = spawn_task(loop, "orig", single_waiter(ev, log))
    loop_run(loop)
    assert task.state == TaskState.SUSPENDED

    clone = Task.unpack(task.pack(), loop, "clone", task.steps)
    assert (clone.steps, clone.resume_point, clone.state) == \
           (task.steps, task.resume_point, task.state)
    ev.waiters.clear()
    ev.waiters.append(clone.resume)
    event_complete(loop, ev)
    loop_run(loop)
    assert log == ["before", "after"]
    assert clone.state == TaskState.ENDED


def test_trace_timestamps_monotone_per_node(dispatches):
    loop = fresh_loop()
    for i in range(10):
        ev = timer_event(loop, (9 - i) * 7, f"t{i}")      # pushed latest first
        spawn_task(loop, f"w{i}", [lambda t, ev=ev: ev, lambda t: END])
    spawn_task(loop, "y", yields_n(3))
    loop_run(loop)
    stamps = [now for now, _, _ in dispatches.log]
    assert stamps == sorted(stamps) and stamps[-1] == 63
