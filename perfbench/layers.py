"""Per-layer numbers of one workload, measured from outside the package.

Layers are the modules of ``src/nanopipe``. Self time comes from ``cProfile``
around ``run_scenario``, grouped by the module that defines each function;
time in C builtins and in standard-library code is charged to the package
module that called it. Call counts are read from the same profile, because
functions that modules bind at import (``from .coro import ...``) cannot be
patched from outside. The two ratios that need return values wrap public
methods on their classes for one extra run.
"""
from __future__ import annotations

import cProfile
import collections
import contextlib
import gc
import pathlib
import statistics
import time

from workloads import SRC

LAYERS = ("coro", "pipeline", "vnode", "cpx", "trace", "scenarios")
PACKAGE_DIR = SRC / "nanopipe"
# records the runtime emits for itself rather than for the modelled system
RUNTIME_KINDS = ("Spawn", "Suspend", "Resume", "EventComplete")


class GcMeter:
    """Collector pauses and full (generation 2) collections, via ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._t0
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def _module_of(func):
    path = pathlib.Path(func[0])
    return path.stem if path.parent == PACKAGE_DIR else None


def self_time_by_module(stats: dict) -> dict:
    """Seconds of self time per package module, from ``Profile.stats``.

    A function outside the package hands its self time to its callers in
    proportion to the time it spent under each of them, recursively.
    """
    shares = {}

    def share(func, path):
        if func in shares:
            return shares[func]
        module = _module_of(func)
        callers = stats[func][4] if func in stats else {}
        if module is not None:
            out = {module: 1.0}
        elif not callers or func in path:
            out = {"other": 1.0}
        else:
            weights = {c: edge[2] for c, edge in callers.items()}
            total = sum(weights.values())
            if total == 0:
                weights = {c: edge[0] for c, edge in callers.items()}
                total = sum(weights.values())
            out = collections.defaultdict(float)
            for caller, weight in weights.items():
                for mod, frac in share(caller, path | {func}).items():
                    out[mod] += frac * weight / total
        shares[func] = out
        return out

    seconds = collections.defaultdict(float)
    for func, (_, _, tt, _, _) in stats.items():
        for mod, frac in share(func, frozenset()).items():
            seconds[mod] += tt * frac
    return dict(seconds)


def call_counts(stats: dict) -> dict:
    """Exact counts of the calls each layer's per-frame counters are made of."""
    by_name = {}
    for func, entry in stats.items():
        by_name[(_module_of(func), func[2])] = entry
    pushes = 0
    for func, entry in stats.items():
        if func[0] == "~" and "heappush" in func[2]:
            pushes += sum(edge[0] for caller, edge in entry[4].items()
                          if (_module_of(caller), caller[2]) == ("coro", "schedule_completion"))

    def calls(module, name):
        return by_name[(module, name)][1] if (module, name) in by_name else 0
    return {
        "coro.dispatches": calls("coro", "_dispatch"),
        "coro.event_completes": calls("coro", "event_complete"),
        "coro.timer_pushes": pushes,
        "pipeline.channel_puts": calls("pipeline", "put"),
        "vnode.link_sends": calls("vnode", "send"),
        "cpx.forwards": calls("cpx", "router_forward"),
    }


def profiled_run(spec):
    """(wall seconds, self seconds per module, call counts, metrics) of one run
    under cProfile."""
    from nanopipe import run_scenario
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    _, metrics = run_scenario(spec)
    profile.disable()
    wall = time.perf_counter() - t0
    profile.create_stats()
    return wall, self_time_by_module(profile.stats), call_counts(profile.stats), metrics


@contextlib.contextmanager
def _wrapped(cls, name, record):
    """Replace a public method on its class; ``record(args, result)`` sees each call."""
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        record(args, result)
        return result
    setattr(cls, name, wrapper)
    try:
        yield
    finally:
        setattr(cls, name, original)


def counted_run(spec):
    """One run with the ratio counters attached; returns (trace, metrics, tallies)."""
    from nanopipe import BufferPool, Link, RouterQueue, run_scenario
    tally = collections.Counter()

    def acquire(args, buf):
        tally["acquire"] += 1
        tally["acquire_failed"] += buf is None

    def reserve(args, ok):
        tally["reserve"] += 1
        tally["reserve_failed"] += not ok

    def send(args, _):
        tally["link_bytes"] += args[1]

    with _wrapped(BufferPool, "try_acquire", acquire), \
            _wrapped(RouterQueue, "try_reserve", reserve), _wrapped(Link, "send", send):
        trace, metrics = run_scenario(spec)
    return trace, metrics, tally


def metrics_seconds(spec, trace, metrics, repeats: int = 3):
    """Median time of ``compute_metrics`` re-run on a finished trace, and
    whether every re-run reproduced the run's own metrics."""
    from nanopipe import compute_metrics
    times, same = [], True
    for _ in range(repeats):
        t0 = time.perf_counter()
        again = compute_metrics(trace, offset_us=metrics.offset_us_applied,
                                inference_hz=spec.inference_hz,
                                steady_start_frame=spec.steady_start_frame,
                                offsets_estimated_us=metrics.offsets_estimated_us)
        times.append(time.perf_counter() - t0)
        same = same and again == metrics
    return statistics.median(times), same
