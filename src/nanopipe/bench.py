"""Microbenchmarks: context-switch cost, event completion, packet encoding.

Sub-microsecond operations cannot be timed one by one, so each sample times a
batch and divides; medians and p99s are taken over the batch samples, timed on
the wall clock with the collector paused. The benchmarked loops run on a
virtual clock; they set no timers, so virtual time never advances.
"""
from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass, field

from .coro import (END, YIELD, EventLoop, Task, VirtualClock, event_complete, event_init,
                   event_reset, loop_run, spawn_task)
from .cpx import CpxPacket, packet_encode
from .errors import ConfigError

# the figure the runtime's per-task footprint is held against
REFERENCE_TASK_BYTES_32BIT = 18


@dataclass
class BenchReport:
    kind: str
    iterations: int
    median_ns: float
    p99_ns: float
    extras: dict = field(default_factory=dict)

    def lines(self) -> list:
        out = [f"{self.kind}: median {self.median_ns:.0f} ns, p99 {self.p99_ns:.0f} ns "
               f"over {self.iterations} iterations"]
        for key, val in self.extras.items():
            out.append(f"  {key}: {val}")
        return out


def _batched(op, batch: int, batches: int):
    samples = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        op(batch)     # warm up
        for _ in range(batches):
            t0 = time.perf_counter_ns()
            op(batch)
            t1 = time.perf_counter_ns()
            samples.append((t1 - t0) / batch)
    finally:
        if gc_was_enabled:
            gc.enable()
    samples.sort()
    return samples


def _yield(t):
    # every dispatch is exactly one resume + one suspend through the scheduler
    if t.count == t.frames:
        return END
    t.count += 1
    return YIELD


def bench_ctx_switch(switches_per_batch: int = 1000, batches: int = 1000) -> BenchReport:
    """Median suspend+resume cost of one task yielding through the loop.

    Each batch times one full loop run of a task that suspends and is resumed
    ``switches_per_batch`` times; per-switch cost is batch time over dispatch
    count. Waking a suspended task through an event is the separate
    ``event_complete`` benchmark.
    """
    loop = EventLoop(VirtualClock(), name="bench")

    def op(n):
        spawn_task(loop, "yielder", [_yield], frames=n, count=0)
        loop_run(loop)
    samples = _batched(op, switches_per_batch, batches)
    return BenchReport(
        kind="ctx_switch",
        iterations=switches_per_batch * batches,
        median_ns=samples[len(samples) // 2],
        p99_ns=samples[int(len(samples) * 0.99) - 1],
        extras=context_size_report(),
    )


def bench_event_complete(batch: int = 2000, batches: int = 500) -> BenchReport:
    loop = EventLoop(VirtualClock(), name="bench")
    ev = event_init("bench")

    def op(n):
        for _ in range(n):
            event_complete(loop, ev)
            event_reset(ev)
    samples = _batched(op, batch, batches)
    return BenchReport("event_complete", batch * batches,
                       samples[len(samples) // 2], samples[int(len(samples) * 0.99) - 1])


def bench_packet_encode(batch: int = 2000, batches: int = 500) -> BenchReport:
    pkt = CpxPacket(source=4, destination=3, function=5)   # header-only frame

    def op(n):
        for _ in range(n):
            packet_encode(pkt)
    samples = _batched(op, batch, batches)
    return BenchReport("packet_encode", batch * batches,
                       samples[len(samples) // 2], samples[int(len(samples) * 0.99) - 1])


def context_size_report() -> dict:
    task = Task(EventLoop(VirtualClock(), name="size"), "size", [_yield])
    return {
        "context_bookkeeping_bytes": Task.BOOKKEEPING_BYTES,
        "reference_task_bytes_32bit_mcu": REFERENCE_TASK_BYTES_32BIT,
        "interpreter_object_bytes": sys.getsizeof(task),
    }


_BENCHES = {"ctx_switch": bench_ctx_switch, "event_complete": bench_event_complete,
            "packet_encode": bench_packet_encode}
BENCH_KINDS = tuple(_BENCHES)


def microbench(kind: str) -> BenchReport:
    if kind not in _BENCHES:
        raise ConfigError(f"unknown benchmark kind {kind!r}; pick one of {BENCH_KINDS}")
    return _BENCHES[kind]()
