#!/usr/bin/env python3
"""Heap peaks of a run, its metrics extraction and its CSV export, by tracemalloc.

    python3 scripts/heap_peak.py FIXTURE... [--frames N]

For each FIXTURE, runs ``run_scenario`` once at seed 7 and ``--frames``
frames (default 5,000), then ``compute_metrics`` on its trace with the
arguments the run gave it, then ``write_csv`` to the null device. It prints
the fixture, the ``tracemalloc`` peak of each of the three calls in bytes, and
the peak of ``compute_metrics`` divided by the run's steady receipts. A peak
counts what the call allocated and still held at its highest point, its
result included; memory allocated before the call is not counted. A run is
deterministic, so the peaks repeat to within a few bytes and compare two
versions of the package without the noise of a process's resident size.
The package is the one on ``sys.path``; from the root of a checkout, run
with ``PYTHONPATH=src``.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys
import tracemalloc

SEED = 7


def _peak(fn, *args, **kwargs):
    """``fn``'s result and the peak of the memory it allocated, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def metrics_peak(spec, trace, metrics) -> int:
    """The peak of ``compute_metrics`` on the trace of a run of ``spec``,
    given the arguments that run gave it (read back from its ``metrics``)."""
    from nanopipe.scenarios import compute_metrics
    return _peak(compute_metrics, trace, offset_us=metrics.offset_us_applied,
                 inference_hz=spec.inference_hz, steady_start_frame=spec.steady_start_frame,
                 offsets_estimated_us=metrics.offsets_estimated_us)[1]


def heap_peaks(fixture: str, frames: int):
    """The peaks of ``run_scenario``, ``compute_metrics`` and ``write_csv`` on
    one run of ``fixture``, as a dict, and the run's metrics."""
    from nanopipe import load_scenario, run_scenario
    spec = dataclasses.replace(load_scenario(fixture), frames=frames, seed=SEED)
    (trace, metrics), run = _peak(run_scenario, spec)
    return {"run_scenario": run, "compute_metrics": metrics_peak(spec, trace, metrics),
            "write_csv": _peak(trace.write_csv, os.devnull)[1]}, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fixtures", nargs="+", metavar="FIXTURE")
    parser.add_argument("--frames", type=int, default=5000)
    args = parser.parse_args()
    if args.frames < 1:
        parser.error("--frames must be at least 1")
    for fixture in args.fixtures:
        peaks, metrics = heap_peaks(fixture, args.frames)
        per_receipt = peaks["compute_metrics"] / metrics.steady_receipts
        print(fixture, *(f"{name} {peak}" for name, peak in peaks.items()),
              f"compute_metrics_per_receipt {per_receipt:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
