"""perfbench's calls into the package, each run once on a small batch.

The benchmark under ``perfbench/`` is not part of the test suite, so a change
that deletes or renames something it calls would show only when the benchmark
runs. Here every microbenchmark runs its operation once on a batch of 2, and
the layer probe's counted run, metrics re-run and oracle residual run on the
``remote-jitter`` workload at 60 frames.
"""

import dataclasses
import pathlib
import sys

import nanopipe.bench

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402
import micro  # noqa: E402
import workloads  # noqa: E402


def _median_ns_once(make, op, batch, batches):
    op(make(), 2)
    return 1.0


def _batched_once(op, batch, batches):
    op(2)
    return [1.0]


def test_microbenchmarks_reach_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(micro, "OUT_DIR", tmp_path)
    monkeypatch.setattr(micro, "_median_ns", _median_ns_once)
    monkeypatch.setattr(nanopipe.bench, "_batched", _batched_once)
    assert set(micro.measure_all().values()) == {1.0}


def test_layer_probe_reaches_the_package():
    spec = dataclasses.replace(workloads.load("remote-jitter"), frames=60)
    trace, metrics, tally = layers.counted_run(spec)
    assert tally["acquire"] > 0 and tally["reserve"] > 0 and tally["link_bytes"] > 0
    assert len(trace.events) == sum(1 for _ in trace.events) > 0
    _, same = layers.metrics_seconds(spec, trace, metrics, repeats=1)
    assert same
    assert workloads.oracle_residual_pct(spec, metrics) is not None
