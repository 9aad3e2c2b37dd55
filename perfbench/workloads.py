"""The benchmark's workloads and the checks on their simulated outputs.

Each workload is a shipped fixture run through the public API at a fixed,
long frame count. Its simulated outputs at the fixture's own seed are pinned
in ``pinned.json`` and checked on every benchmark run; the runs at the
benchmark's ``--seed`` are checked for determinism.
"""
from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED = pathlib.Path(__file__).resolve().with_name("pinned.json")
# export output of the runs; removed again by whoever created it
OUT_DIR = ROOT / ".perfbench_out"

# workload -> (fixture, frames). Two closed loops that stress different
# layers; the reasons for each are in README.md.
WORKLOADS = {
    "remote-jitter": ("remote-sweep", 5000),
    "stream-backpressure": ("streaming-72hz", 5000),
}

# the simulated outputs a speed-up must leave bit-identical
OUTPUT_FIELDS = ("closed_loop_hz", "e2e_ms_mean", "e2e_ms_p95", "drop_pct", "rtt_ms_mean",
                 "steady_receipts", "frames_dropped", "offsets_estimated_us")

# the tolerance `nanopipe run --check` applies to the closed-form oracle
ORACLE_TOLERANCE_PCT = 2.0


def import_nanopipe():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import nanopipe
    if not pathlib.Path(nanopipe.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"nanopipe imported from {nanopipe.__file__}, not from {SRC}")
    return nanopipe


def load(workload: str, seed=None):
    """The workload's scenario; ``seed=None`` keeps the fixture's own seed."""
    from nanopipe import load_scenario
    fixture, frames = WORKLOADS[workload]
    spec = load_scenario(fixture)
    overrides = {"frames": frames}
    if seed is not None:
        overrides["seed"] = seed
    return dataclasses.replace(spec, **overrides)


def sim_outputs(metrics) -> dict:
    # through JSON, so the values compare exactly as pinned.json stores them
    return json.loads(json.dumps({k: getattr(metrics, k) for k in OUTPUT_FIELDS}))


def oracle_residual_pct(spec, metrics):
    """|closed_loop_hz - oracle| / oracle in percent; None where the oracle has
    no closed form for the shape."""
    from nanopipe import OracleUnavailable, expected_period_us
    try:
        oracle_hz = 1e6 / expected_period_us(spec)
    except OracleUnavailable:
        return None
    return abs(metrics.closed_loop_hz - oracle_hz) / oracle_hz * 100.0


def check_pinned(workload: str, spec, metrics) -> list:
    """The failed checks of a run at the fixture's own seed.

    Every simulated output must equal its pinned value, and the closed loop
    must agree with the oracle within the ``--check`` tolerance.
    """
    pin = json.loads(PINNED.read_text())[workload]
    if (spec.name, spec.frames, spec.seed) != (pin["fixture"], pin["frames"], pin["seed"]):
        raise SystemExit(f"{workload}: pinned.json was taken from another run length or seed")
    failures = [f"{workload} seed {spec.seed}: {key} = {value!r}, pinned {pin['outputs'][key]!r}"
                for key, value in sim_outputs(metrics).items()
                if value != pin["outputs"][key]]
    residual = oracle_residual_pct(spec, metrics)
    if residual is not None and residual > ORACLE_TOLERANCE_PCT:
        failures.append(f"{workload}: closed loop {residual:.3f}% off the oracle")
    return failures
