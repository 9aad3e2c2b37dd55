"""Semantics of the stackless coroutine runtime."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopipe.coro import (CoroutineContext, Event, EventLoop, TaskState, VirtualClock,
                           call_at, coroutine, ctx_init, defer, done, event_complete,
                           event_init, event_reset, join_all, loop_run, schedule_completion,
                           sleep_until, spawn, wait)
from nanopipe.errors import ConfigError, UsageError
from nanopipe.trace import Kind, TraceLog


def fresh_loop(trace=False):
    tr = TraceLog() if trace else None
    loop = EventLoop(VirtualClock(), name="n0", trace=tr)
    return loop, tr


# --- bodies used across tests ---

@coroutine
def noop(ctx):
    return done()


@coroutine
def recorder(ctx):
    # args: (log, tag) -- appends its tag once and ends
    log, tag = ctx.args
    log.append(tag)
    return done()


@coroutine
def yields_n(ctx):
    # args: dict with "left" counter
    if ctx.args["left"] > 0:
        ctx.args["left"] -= 1
        return defer(0)
    return done()


@coroutine
def single_waiter(ctx):
    # args: dict(event=..., log=[])
    if ctx.resume_point == 0:
        ctx.args["log"].append("before")
        return wait(ctx.args["event"], then=1)
    ctx.args["log"].append("after")
    return done()


@coroutine
def timed_waiter(ctx):
    # args: (event, log, tag, loop) -- appends (tag, local time) once the event completes
    ev, log, tag, loop = ctx.args
    if ctx.resume_point == 0:
        return wait(ev, then=1)
    log.append((tag, loop.now))
    return done()


@coroutine
def two_phase(ctx):
    # waits two events in sequence, recording the resume points it passes
    a = ctx.args
    if ctx.resume_point == 0:
        return wait(a["ev1"], then=1)
    if ctx.resume_point == 1:
        a["points"].append(1)
        return wait(a["ev2"], then=2)
    a["points"].append(2)
    return done()


@coroutine
def stepper(ctx):
    # interleaving probe: appends (tag, step) and yields between steps
    a = ctx.args
    if a["step"] < a["total"]:
        a["log"].append((a["tag"], a["step"]))
        a["step"] += 1
        return defer(0)
    return done()


def test_ctx_init_fresh_state():
    ctx = ctx_init(noop, None)
    assert ctx.state == TaskState.START
    assert ctx.resume_point == 0


def test_ctx_init_unknown_id_rejected():
    with pytest.raises(ConfigError):
        ctx_init(0xFFFE)
    with pytest.raises(ConfigError):
        ctx_init(lambda ctx: done())


def test_spawn_and_run_to_ended():
    loop, _ = fresh_loop()
    ctx = ctx_init(noop)
    spawn(loop, ctx)
    loop_run(loop)
    assert ctx.state == TaskState.ENDED


def test_two_instances_interleave_without_corruption():
    loop, _ = fresh_loop()
    log = []
    a = ctx_init(stepper, {"tag": "a", "step": 0, "total": 3, "log": log})
    b = ctx_init(stepper, {"tag": "b", "step": 0, "total": 3, "log": log})
    spawn(loop, a)
    spawn(loop, b)
    loop_run(loop)
    # strict alternation: both progress one step per pass, no state leaking
    assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
    assert a.state == TaskState.ENDED and b.state == TaskState.ENDED


def test_spawn_order_is_execution_order():
    loop, _ = fresh_loop()
    log = []
    for tag in ("t1", "t2", "t3"):
        spawn(loop, ctx_init(recorder, (log, tag)))
    loop_run(loop)
    assert log == ["t1", "t2", "t3"]


def test_respawn_non_start_context_rejected():
    loop, _ = fresh_loop()
    ctx = ctx_init(noop)
    spawn(loop, ctx)
    loop_run(loop)
    with pytest.raises(UsageError):
        spawn(loop, ctx)


def test_counting_oracle_1000_tasks_10_yields():
    # each task is dispatched 10 times for its yields plus one terminal pass
    loop, _ = fresh_loop()
    for _ in range(1000):
        spawn(loop, ctx_init(yields_n, {"left": 10}))
    loop_run(loop)
    assert loop.dispatch_count == 10_000 + 1000


def test_event_complete_without_waiters_sets_flag_only():
    loop, _ = fresh_loop()
    ev = event_init("e")
    event_complete(loop, ev)
    assert ev.completed and ev.completion_count == 1
    assert not loop.ready


def test_double_complete_detected():
    loop, _ = fresh_loop()
    ev = event_init("e")
    event_complete(loop, ev)
    with pytest.raises(UsageError):
        event_complete(loop, ev)
    event_reset(ev)
    event_complete(loop, ev)
    assert ev.completion_count == 2


def test_three_waiters_resumed_in_registration_order():
    loop, _ = fresh_loop()
    ev = event_init("e")
    log = []
    ctxs = [ctx_init(single_waiter, {"event": ev, "log": log}, label=f"w{i}")
            for i in range(3)]
    for c in ctxs:
        spawn(loop, c)
    loop_run(loop)
    assert log == ["before", "before", "before"]
    event_complete(loop, ev)
    loop_run(loop)
    assert log[3:] == ["after", "after", "after"]
    assert list(ev.waiters) == []
    assert all(c.state == TaskState.ENDED for c in ctxs)


def test_wait_on_completed_event_records_no_suspension():
    loop, tr = fresh_loop(trace=True)
    ev = event_init("e")
    event_complete(loop, ev)
    log = []
    spawn(loop, ctx_init(single_waiter, {"event": ev, "log": log}, label="w"))
    loop_run(loop)
    assert log == ["before", "after"]
    assert tr.count(Kind.SUSPEND, "w") == 0


def test_complete_before_wait_resumes_in_same_pass():
    # completion happens first; the later waiter must not suspend at all
    loop, tr = fresh_loop(trace=True)
    ev = event_init("e")
    event_complete(loop, ev)
    log = []
    spawn(loop, ctx_init(single_waiter, {"event": ev, "log": log}, label="w"))
    loop_run(loop)
    kinds = [e.kind for e in tr.events if e.subject == "w"]
    assert kinds == [Kind.SPAWN]  # no Suspend, no Resume: ran straight through
    assert log == ["before", "after"]


def test_fork_join_records_two_distinct_suspension_points():
    loop, _ = fresh_loop()
    ev1, ev2 = event_init("e1"), event_init("e2")
    points = []
    ctx = ctx_init(two_phase, {"ev1": ev1, "ev2": ev2, "points": points}, label="main")
    spawn(loop, ctx)
    loop_run(loop)
    event_complete(loop, ev1)
    loop_run(loop)
    event_complete(loop, ev2)
    loop_run(loop)
    assert points == [1, 2]
    assert len(set(points)) == 2
    assert ctx.state == TaskState.ENDED


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_n_waiters_suspended_and_resumed_exactly_once(n):
    loop, tr = fresh_loop(trace=True)
    ev = event_init("e")
    log = []
    for i in range(n):
        spawn(loop, ctx_init(single_waiter, {"event": ev, "log": log}, label=f"w{i}"))
    loop_run(loop)
    event_complete(loop, ev)
    loop_run(loop)
    for i in range(n):
        assert tr.count(Kind.SUSPEND, f"w{i}") == 1
        assert tr.count(Kind.RESUME, f"w{i}") == 1


def test_exactly_once_resumption_counters():
    # one completion, k waiters: Resume emitted exactly once per (waiter, completion)
    loop, tr = fresh_loop(trace=True)
    for round_no in range(3):
        ev = event_init(f"e{round_no}")
        for i in range(4):
            spawn(loop, ctx_init(single_waiter, {"event": ev, "log": []},
                                 label=f"r{round_no}w{i}"))
        loop_run(loop)
        event_complete(loop, ev)
        loop_run(loop)
    resumes = [e for e in tr.events if e.kind == Kind.RESUME]
    assert len(resumes) == 3 * 4
    assert len({e.subject for e in resumes}) == 12


# --- fork-join ---

@coroutine
def timed_subtask(ctx):
    # runs for args["dur"] of virtual time, then signals completion
    a = ctx.args
    if ctx.resume_point == 0:
        a["log"].append((a["name"], "start", a["loop"].now))
        a["timer"] = sleep_until(a["loop"], a["loop"].now + a["dur"], a["name"])
        return wait(a["timer"], then=1)
    a["log"].append((a["name"], "end", a["loop"].now))
    event_complete(a["loop"], a["done"])
    return done()


@coroutine
def forkjoin_main(ctx):
    # spawns two sub-tasks, keeps working, then waits for both to finish
    a = ctx.args
    loop = a["loop"]
    if ctx.resume_point == 0:
        for name, dur, done_ev in (("task1", a["d1"], a["ev1"]),
                                   ("task2", a["d2"], a["ev2"])):
            sub = {"name": name, "dur": dur, "done": done_ev, "loop": loop,
                   "log": a["log"], "timer": None}
            spawn(loop, ctx_init(timed_subtask, sub, label=name))
        a["log"].append(("main", "forked", loop.now))
        return wait(a["ev1"], then=1)
    if ctx.resume_point == 1:
        return wait(a["ev2"], then=2)
    a["log"].append(("main", "joined", loop.now))
    return done()


def test_fork_join_main_waits_both_subtasks():
    loop, _ = fresh_loop()
    log = []
    args = {"loop": loop, "log": log, "d1": 300, "d2": 120,
            "ev1": event_init("done1"), "ev2": event_init("done2")}
    spawn(loop, ctx_init(forkjoin_main, args, label="main"))
    loop_run(loop)
    # both sub-tasks ran in the background while main was suspended, and main
    # resumed only after the slower one finished
    assert ("main", "forked", 0) in log
    assert log[-1] == ("main", "joined", 300)
    assert ("task2", "end", 120) in log and ("task1", "end", 300) in log
    assert loop.now == 300


# --- join_all ---

def test_join_all_of_completed_events():
    loop, _ = fresh_loop()
    evs = [event_init("a"), event_init("b")]
    for ev in evs:
        event_complete(loop, ev)
    out = join_all(loop, evs)
    loop_run(loop)
    assert out.completed


def test_join_all_empty_completes_immediately():
    loop, _ = fresh_loop()
    out = join_all(loop, [])
    assert out.completed


def test_join_all_fork_join_timeline():
    # main forks two timed sub-tasks and proceeds only after both finish
    loop, _ = fresh_loop()
    e1 = sleep_until(loop, 100, "t1")
    e2 = sleep_until(loop, 250, "t2")
    out = join_all(loop, [e1, e2])
    loop_run(loop)
    assert out.completed
    assert loop.now == 250


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
def test_join_all_fires_at_max_over_all_completion_orders(order):
    loop, _ = fresh_loop()
    deadlines = [(i + 1) * 10 for i in order]   # completion times permuted
    evs = [sleep_until(loop, d, f"t{i}") for i, d in enumerate(deadlines)]
    out = join_all(loop, evs)
    loop_run(loop)
    assert out.completed and out.completion_count == 1
    assert loop.now == max(deadlines)


# --- timers ---

def test_sleep_until_now_is_immediate():
    loop, _ = fresh_loop()
    ev = sleep_until(loop, loop.now)
    assert ev.completed


def test_sleep_until_past_is_immediate():
    loop, _ = fresh_loop()
    loop.clock.now = 500
    ev = sleep_until(loop, 100)
    assert ev.completed


def test_timers_fire_in_deadline_order():
    loop, tr = fresh_loop(trace=True)
    fired = []

    @coroutine
    def waits_one(ctx):
        if ctx.resume_point == 0:
            return wait(ctx.args["ev"], then=1)
        fired.append((ctx.args["tag"], loop.now))
        return done()

    for tag, deadline in (("c", 30), ("a", 10), ("b", 20)):
        ev = sleep_until(loop, deadline, f"t-{tag}")
        spawn(loop, ctx_init(waits_one, {"ev": ev, "tag": tag}, label=tag))
    loop_run(loop)
    assert fired == [("a", 10), ("b", 20), ("c", 30)]
    assert loop.now == 30


def test_call_at_runs_callbacks_at_their_deadlines_without_tasks():
    loop, _ = fresh_loop()
    fired = []
    for deadline in (30, 10, 20):
        call_at(loop, deadline, lambda d=deadline: fired.append((d, loop.now)))
    call_at(loop, 0, lambda: fired.append(("now", loop.now)))     # due: runs at once
    assert fired == [("now", 0)]
    loop_run(loop)
    assert fired[1:] == [(10, 10), (20, 20), (30, 30)]
    assert loop.dispatch_count == 0


def test_call_at_callback_keeps_its_place_among_tasks_woken_at_the_same_instant():
    # a due callback runs where a task woken by the same timer would, so the
    # order at a tie follows the order the timers were set in
    loop, _ = fresh_loop()
    log = []
    ev = sleep_until(loop, 100, "first")
    call_at(loop, 100, lambda: log.append("callback"))
    spawn(loop, ctx_init(single_waiter, {"event": ev, "log": log}))
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
            spawn(loop, ctx_init(timed_waiter, (ev, ran, tag, loop)))
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


def test_loop_run_until_time_stops_clock_there():
    loop, _ = fresh_loop()
    ev = sleep_until(loop, 1000)
    loop_run(loop, until=400)
    assert loop.now == 400
    assert not ev.completed
    loop_run(loop, until=200)      # a stop time in the past never rewinds
    assert loop.now == 400
    loop_run(loop)
    assert ev.completed and loop.now == 1000


def test_deterministic_trace_with_random_timers_and_tasks():
    def run_once(seed):
        loop, tr = fresh_loop(trace=True)
        rng = random.Random(seed)

        @coroutine
        def sleeper(ctx):
            a = ctx.args
            if ctx.resume_point == 0:
                a["ev"] = sleep_until(loop, a["deadline"], f"tm{a['i']}")
                return wait(a["ev"], then=1)
            return done()

        for i in range(100):
            spawn(loop, ctx_init(sleeper, {"deadline": rng.randrange(0, 5000), "i": i},
                                 label=f"s{i}"))
        for i in range(20):
            spawn(loop, ctx_init(yields_n, {"left": rng.randrange(1, 5)}, label=f"y{i}"))
        loop_run(loop)
        return tr.to_csv()

    assert run_once(7) == run_once(7)
    assert run_once(7) != run_once(8)


# --- FIFO fairness ---

@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(6))))
def test_fifo_fairness_execution_matches_enqueue_order(order):
    loop, _ = fresh_loop()
    log = []
    for i in order:
        spawn(loop, ctx_init(recorder, (log, i)))
    loop_run(loop)
    assert log == list(order)


@coroutine
def tagged_waiter(ctx):
    # records its own tag on each side of the suspension
    a = ctx.args
    if ctx.resume_point == 0:
        a["log"].append(("waiting", a["tag"]))
        return wait(a["event"], then=1)
    a["log"].append(("resumed", a["tag"]))
    return done()


def test_fifo_among_tasks_made_ready_at_same_instant():
    # all waiters of one event become ready together; they run in wait order
    loop, _ = fresh_loop()
    ev = event_init("e")
    log = []
    for i in range(5):
        spawn(loop, ctx_init(tagged_waiter, {"event": ev, "log": log, "tag": i}))
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
    for src in TaskState:
        for dst in TaskState:
            ctx = ctx_init(noop)
            ctx.state = src
            if (src, dst) in legal:
                ctx._transition(dst)
                assert ctx.state == dst
            else:
                with pytest.raises(UsageError):
                    ctx._transition(dst)


def test_wait_outside_coroutine_rejected():
    ev = event_init("e")
    with pytest.raises(UsageError):
        wait(ev, then=1)
    with pytest.raises(UsageError):
        defer(0)


# --- no stack retention ---

def _scribble(depth):
    # burns stack frames with throwaway locals between dispatches
    junk = [depth] * 8
    if depth:
        return _scribble(depth - 1) + junk[0]
    return 0


@coroutine
def stack_scribbler(ctx):
    if ctx.args["left"] > 0:
        ctx.args["left"] -= 1
        _scribble(40)
        return defer(0)
    return done()


def test_behavior_is_pure_function_of_args_and_resume_point():
    # the same tasks produce the same observable log whether or not other
    # tasks churn the shared (Python call) stack between their suspensions
    def run(with_scribblers):
        loop, _ = fresh_loop()
        log = []
        for i in range(4):
            spawn(loop, ctx_init(stepper, {"tag": i, "step": 0, "total": 5, "log": log}))
            if with_scribblers:
                spawn(loop, ctx_init(stack_scribbler, {"left": 5}))
        loop_run(loop)
        return log

    plain = run(False)
    churned = run(True)
    assert [e for e in churned if isinstance(e, tuple)] == plain


def test_bookkeeping_packs_into_at_most_32_bytes():
    assert CoroutineContext.BOOKKEEPING_BYTES <= 32
    ctx = ctx_init(noop)
    assert len(ctx.pack()) == CoroutineContext.BOOKKEEPING_BYTES


def test_packed_context_round_trips_and_resumes_identically():
    # suspend a task, clone it from its packed bookkeeping + args, swap the
    # clone into the waiter list, and check it finishes exactly like the
    # original would: the packed fields are the whole runtime state
    loop, _ = fresh_loop()
    ev = event_init("e")
    log = []
    ctx = ctx_init(single_waiter, {"event": ev, "log": log}, label="orig")
    spawn(loop, ctx)
    loop_run(loop)
    assert ctx.state == TaskState.SUSPENDED

    clone = CoroutineContext.unpack(ctx.pack(), args=ctx.args, label="clone")
    assert (clone.coroutine_id, clone.resume_point, clone.state) == \
           (ctx.coroutine_id, ctx.resume_point, ctx.state)
    ev.waiters.clear()
    ev.waiters.append(clone)
    event_complete(loop, ev)
    loop_run(loop)
    assert log == ["before", "after"]
    assert clone.state == TaskState.ENDED


def test_trace_timestamps_monotone_per_node():
    loop, tr = fresh_loop(trace=True)
    for i in range(10):
        ev = sleep_until(loop, i * 7, f"t{i}")
    spawn(loop, ctx_init(yields_n, {"left": 3}))
    loop_run(loop)
    stamps = [e.t_us for e in tr.events]
    assert stamps == sorted(stamps)
