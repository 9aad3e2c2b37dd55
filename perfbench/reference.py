"""A fixed pure-Python loop that the timed runs are measured against.

The host's speed drifts by a quarter or more over minutes, because other load
on the machine contends for the CPU. One pass of this loop, timed right
before and right after each simulation run, slows down with the machine
alike, so a run's time divided by the pass's time stays steady while the
machine drifts. Nothing here imports ``nanopipe``, so a change to the package
cannot change the yardstick.

The loop does what the simulator does most, at a fixed size: generator
coroutines resumed through a timer heap, one named-tuple record per resume,
then every record formatted as a CSV line.
"""
from __future__ import annotations

import collections
import heapq
import io
import time

Record = collections.namedtuple("Record", "t_us node kind subject frame")

TASKS = 40
STEPS = 3000
# characters the CSV text of one pass must have; guards the loop against edits
EXPECTED_CHARS = 3_132_220


def _task(i, log):
    t_us = 0
    for k in range(STEPS):
        t_us = yield (k * 7 + i) % 13 + 1
        log.append(Record(t_us, f"n{i % 5}", "Resume", "stage", k))


def one_pass() -> int:
    """Run the loop once; returns the length of its CSV text."""
    log = []
    tasks = [_task(i, log) for i in range(TASKS)]
    heap = [(next(task), i, i) for i, task in enumerate(tasks)]
    heapq.heapify(heap)
    seq = len(heap)
    while heap:
        t_us, _, i = heapq.heappop(heap)
        try:
            delay = tasks[i].send(t_us)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (t_us + delay, seq, i))
    buf = io.StringIO()
    for r in log:
        buf.write(f"{r.t_us},{r.node},{r.kind},{r.subject},{r.frame}\n")
    return len(buf.getvalue())


def timed_pass() -> float:
    """Seconds one pass takes now."""
    t0 = time.perf_counter()
    chars = one_pass()
    seconds = time.perf_counter() - t0
    if chars != EXPECTED_CHARS:
        raise SystemExit(f"reference loop wrote {chars} characters, not {EXPECTED_CHARS}")
    return seconds
