"""Scenario loading, closed-loop runs, and metric extraction."""

import dataclasses
import json

import pytest

from nanopipe.coro import EventLoop, VirtualClock
from nanopipe.errors import ConfigError, MetricsError
from nanopipe.scenarios import (Metrics, Scenario, compute_metrics, expected_period_us,
                                list_scenarios, load_scenario, run_remote_scenario,
                                run_scenario, scenario_from_dict)
from nanopipe.trace import Kind, TraceLog


# --- loading and validation ---

def test_all_fixtures_load():
    names = {name for name, _, _ in list_scenarios()}
    assert {"pulp-frontnet-48", "nanoflownet-11", "remote-40hz", "remote-40hz-delay500",
            "streaming-72hz", "fcnn-39", "imav-30", "remote-sweep",
            "frontnet-latency"} <= names


def test_alias_resolves_to_same_scenario():
    assert load_scenario("cereda-remote-40").name == "remote-40hz"


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        load_scenario("does-not-exist")


def test_scenario_from_path(tmp_path):
    src = load_scenario("fcnn-39")
    doc = {
        "name": "custom", "kind": "onboard", "frames": 60, "rate_hz": 39.0,
        "inference_us": 25641,
        "camera": {"mode": "streaming", "resolution": [160, 160], "readout_us": 8000},
        "links": {"uart_down": {"bandwidth_bps": 20000}},
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    spec = load_scenario(path)
    assert spec.name == "custom"
    assert spec.frame_period_us == src.frame_period_us


def test_schema_violations_rejected(tmp_path):
    base = {
        "name": "x", "kind": "onboard", "frames": 60, "rate_hz": 10.0,
        "links": {"uart_down": {"bandwidth_bps": 20000}},
    }
    for mutation in (
            {"kind": "quantum"},
            {"frames": 10},                      # below the 50-frame floor
            {"mode": "warp"},
            {"router_mode": "magic"},
            {"pool_size": 0},
            {"links": {}},                       # missing uart_down
            {"links": {"uart_down": {"mtu": 64}}},   # link without bandwidth_bps
            {"bogus_field": 1},
            {"readout_us": 5000},                # belongs in the camera block
            # links an onboard scenario never builds
            {"links": {"uart_down": {"bandwidth_bps": 20000}, "spi_up": {"bandwidth_bps": 1}}},
            {"links": {"uart_down": {"bandwidth_bps": 20000},
                       "uart_up": {"bandwidth_bps": 1, "base_latency_us": 90000}}},
    ):
        doc = dict(base)
        doc.update(mutation)
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)


def test_unreadable_scenario_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(path)
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "missing.json")


def test_infeasible_trigger_rate_rejected():
    spec = load_scenario("imav-30")
    with pytest.raises(ConfigError):
        dataclasses.replace(spec, rate_hz=31.0)   # above the ~30 Hz trigger ceiling


def test_streaming_rate_beyond_sensor_ceiling_rejected():
    spec = load_scenario("pulp-frontnet-48")
    with pytest.raises(ConfigError):
        dataclasses.replace(spec, rate_hz=200.0)


def test_run_remote_scenario_rejects_other_kinds():
    with pytest.raises(ConfigError):
        run_remote_scenario(load_scenario("pulp-frontnet-48"))


# --- compute_metrics on synthetic traces ---

def synthetic_trace(receipts, capture_starts=None):
    loop = EventLoop(VirtualClock(), name="n0")
    tr = TraceLog()
    loop._trace = tr
    for frame, t in (capture_starts or []):
        loop.clock.now = t
        tr.emit(loop, Kind.STAGE_START, "capture", frame)
    for frame, t in receipts:
        loop.clock.now = t
        tr.emit(loop, Kind.STAGE_START, "sink", frame)
        tr.emit(loop, Kind.STAGE_END, "sink", frame)
    return tr


def test_metrics_arithmetic_49_receipts_at_48hz():
    # 49 receipts spaced exactly 20.833 ms apart read back as 48.0 Hz
    receipts = [(f, f * 20833) for f in range(49)]
    tr = synthetic_trace(receipts)
    m = compute_metrics(tr, inference_hz=48.0)
    assert abs(m.closed_loop_hz - 48.0) < 0.01
    assert m.steady_receipts == 39


def test_metrics_too_short_trace_rejected():
    tr = synthetic_trace([(f, f * 1000) for f in range(15)])   # 5 steady receipts
    with pytest.raises(MetricsError):
        compute_metrics(tr)


def test_metrics_empty_steady_window_rejected():
    tr = synthetic_trace([(f, 7777) for f in range(25)])       # zero-width window
    with pytest.raises(MetricsError):
        compute_metrics(tr)


def test_metrics_offset_correction():
    receipts = [(f, 4000 + 500 + f * 1000) for f in range(30)]
    starts = [(f, f * 1000) for f in range(30)]
    tr = synthetic_trace(receipts, starts)
    m = compute_metrics(tr, offset_us=4000.0)
    assert m.e2e_ms_mean == pytest.approx(0.5)
    assert m.offset_us_applied == 4000.0


def test_metrics_drop_bound_enforced():
    # receipts arriving much faster than the declared compute rate would mean
    # a negative drop beyond measurement noise; that is a hard error
    receipts = [(f, f * 10000) for f in range(40)]     # 100 Hz
    tr = synthetic_trace(receipts)
    with pytest.raises(MetricsError):
        compute_metrics(tr, inference_hz=48.0)


def test_latency_at_least_the_configured_stage_total():
    spec = load_scenario("pulp-frontnet-48")
    _, m = run_scenario(spec)
    uart_us = spec.link_cfg("uart_down").serialization_us(spec.result_bytes)
    floor_ms = (spec.readout_us + spec.inference_us + uart_us) / 1000.0
    assert m.e2e_ms_mean >= floor_ms - 1e-9


def test_metrics_json_round_trip():
    receipts = [(f, f * 1000) for f in range(30)]
    m = compute_metrics(synthetic_trace(receipts))
    again = json.loads(m.to_json())
    assert again["closed_loop_hz"] == pytest.approx(m.closed_loop_hz)
    assert again["steady_receipts"] == m.steady_receipts


# --- closed-loop table rows ---

def run_named(name, **overrides):
    spec = load_scenario(name)
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec, run_scenario(spec)


def test_frontnet_48_pipelined_matches_inference_rate():
    spec, (trace, m) = run_named("pulp-frontnet-48")
    assert m.drop_pct == pytest.approx(0.0, abs=2.0)
    assert m.closed_loop_hz == pytest.approx(48.0, rel=0.02)
    assert m.frames_dropped == 0


def test_frontnet_48_serialized_drops_to_sum_rate():
    spec, (trace, m) = run_named("pulp-frontnet-48", mode="serialized")
    # 8 + 20.833 + 6 ms per frame: 28.7 Hz, a ~40% drop
    assert m.closed_loop_hz == pytest.approx(1e6 / 34833, rel=0.02)
    assert m.drop_pct == pytest.approx(40.2, abs=1.0)


def test_nanoflownet_modes():
    _, (_, serial) = run_named("nanoflownet-11", mode="serialized")
    assert serial.closed_loop_hz == pytest.approx(5.5, rel=0.02)
    _, (_, piped) = run_named("nanoflownet-11")
    assert piped.closed_loop_hz == pytest.approx(11.0, rel=0.02)


def test_nanoflownet_fixture_declares_derived_attribution():
    spec = load_scenario("nanoflownet-11")
    assert "derived" in spec.notes["readout_us"].lower()


def test_latency_constant_across_trigger_rates():
    for rate in (12.0, 24.0, 48.0):
        _, (_, m) = run_named("frontnet-latency", rate_hz=rate)
        assert m.e2e_ms_mean == pytest.approx(30.3, rel=0.01)


def test_latency_additivity_on_uart():
    spec = load_scenario("frontnet-latency")
    _, (_, base) = run_named("frontnet-latency")
    links = json.loads(json.dumps(spec.links))
    links["uart_down"]["injected_delay_us"] = 7000
    bumped = dataclasses.replace(spec, links=links)
    _, m = run_scenario(bumped)
    assert m.e2e_ms_mean - base.e2e_ms_mean == pytest.approx(7.0, abs=1e-9)


def test_injected_wifi_delay_shifts_e2e_exactly():
    _, (_, base) = run_named("remote-40hz")
    _, (_, delayed) = run_named("remote-40hz-delay500")
    assert delayed.e2e_ms_mean - base.e2e_ms_mean == pytest.approx(500.0, abs=0.1)
    assert delayed.closed_loop_hz == pytest.approx(40.0, rel=0.02)


def test_remote_rtt_matches_link_budget():
    _, (_, m) = run_named("remote-40hz")
    assert m.rtt_ms_mean == pytest.approx(55.0, rel=0.05)


def test_remote_sweep_latency_monotone_in_load():
    means = []
    for rate in (10.0, 20.0, 40.0):
        _, (_, m) = run_named("remote-sweep", rate_hz=rate)
        means.append(m.e2e_ms_mean)
    assert means[0] <= means[1] <= means[2]
    assert means[2] > means[0]


def test_streaming_modes_and_ratio():
    _, (_, zc) = run_named("streaming-72hz")
    _, (_, base) = run_named("streaming-72hz", router_mode="baseline")
    assert zc.closed_loop_hz == pytest.approx(72.0, abs=1.0)
    assert base.closed_loop_hz == pytest.approx(30.0, abs=1.0)
    assert zc.closed_loop_hz / base.closed_loop_hz == pytest.approx(2.4, rel=0.05)


def test_remote_serialized_closed_loop_waits_round_trip():
    spec, (trace, m) = run_named("remote-40hz", mode="serialized", rtt_probe_rounds=0)
    # lockstep: each frame spans the full loop, so throughput is well below 40
    assert m.closed_loop_hz < 15.0
    assert m.frames_dropped == 0


def test_drop_zero_theorem_grid():
    # pipelined, distinct resources, pool >= 2, camera matched to the slowest
    # stage: no frame is ever dropped and throughput equals the camera rate
    spec = load_scenario("pulp-frontnet-48")
    for inference_us, pool in ((20833, 2), (15000, 2), (20833, 3), (10000, 4)):
        rate = 1e6 / max(inference_us, spec.readout_us, 6000)
        s = dataclasses.replace(spec, inference_us=inference_us, pool_size=pool,
                                rate_hz=round(rate, 3), inference_hz=None, frames=80)
        _, m = run_scenario(s)
        assert m.frames_dropped == 0
        assert m.closed_loop_hz == pytest.approx(rate, rel=0.02)


def test_expected_period_covers_fixture_matrix():
    for name, mode, router, hz in (
            ("pulp-frontnet-48", "pipelined", "zerocopy", 48.0),
            ("pulp-frontnet-48", "serialized", "zerocopy", 1e6 / 34833),
            ("remote-40hz", "pipelined", "zerocopy", 40.0),
            ("streaming-72hz", "pipelined", "zerocopy", 72.0),
            ("streaming-72hz", "pipelined", "baseline", 30.0),
    ):
        spec = dataclasses.replace(load_scenario(name), mode=mode, router_mode=router)
        assert 1e6 / expected_period_us(spec) == pytest.approx(hz, rel=0.001)


def test_offsets_estimated_match_configuration():
    spec = load_scenario("pulp-frontnet-48")
    _, m = run_scenario(spec)
    configured = spec.offsets_us["stm32"] - spec.offsets_us["gap8"]
    assert m.offsets_estimated_us["stm32"] == pytest.approx(configured)


def test_traces_are_well_formed():
    # per-node timestamps never go backwards; every StageStart has an End
    for name in ("pulp-frontnet-48", "remote-40hz", "streaming-72hz"):
        trace, _ = run_scenario(load_scenario(name))
        last_per_node = {}
        for e in trace.events:
            assert e.t_us >= last_per_node.get(e.node, 0), (name, e)
            last_per_node[e.node] = e.t_us
        starts = [(e.subject, e.frame) for e in trace.events if e.kind == Kind.STAGE_START]
        ends = set((e.subject, e.frame) for e in trace.events if e.kind == Kind.STAGE_END)
        missing = [s for s in starts if s not in ends]
        assert not missing, (name, missing[:5])


def test_trigger_camera_numbers_captures_by_tick_when_ticks_drop():
    # one buffer at 29.9 Hz: every other tick finds no Free buffer and drops,
    # so capture numbers must skip the dropped ticks as the later stages do
    _, (trace, m) = run_named("imav-30", mode="pipelined", pool_size=1, rate_hz=29.9)
    assert m.frames_dropped > 0
    assert m.e2e_ms_mean >= 0
    captured = {f for f, _ in trace.frames_of(Kind.STAGE_END, "capture")}
    inferred = {f for f, _ in trace.frames_of(Kind.STAGE_END, "inference")}
    assert captured and captured <= inferred, sorted(captured - inferred)[:5]
