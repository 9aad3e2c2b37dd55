"""Scenario loading, closed-loop runs, and metric extraction."""

import contextlib
import dataclasses
import json
import math
import random
from collections import Counter

import pytest

import nanopipe.scenarios as scenarios_mod
from nanopipe.coro import EventLoop, VirtualClock
from nanopipe.cpx import FUNCTION_APP_STREAM, HEADER_BYTES, NODE_IDS, CpxPacket
from nanopipe.errors import ConfigError, MetricsError
from nanopipe.scenarios import (_FIELDS, Metrics, Scenario, _build_graph, compute_metrics,
                                expected_period_us, list_scenarios, load_scenario, run_scenario,
                                scenario_from_dict)
from nanopipe.trace import Kind, TraceEvent, TraceLog
from nanopipe.vnode import LINKS, Link, LinkConfig

from test_golden import LEGAL, _spec
from test_variant_corpus import corpus_docs


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
            {"links": {"uart_down": {"base_latency_us": 0}}},   # link without bandwidth_bps
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


def test_link_schema_matches_link_config():
    # every link option a file can set reaches LinkConfig, and the reverse
    assert set(_FIELDS["links"]) == {f.name for f in dataclasses.fields(LinkConfig)} - {"name"}


@pytest.mark.parametrize("name,keys", [
    ("pulp-frontnet-48", {"uart_down", "uart_up"}),
    ("remote-40hz", {"spi_up", "spi_down", "wifi_up", "wifi_down", "uart_down", "uart_up"}),
    ("streaming-72hz", {"spi_up", "spi_down", "wifi_up", "wifi_down"}),
])
def test_graph_builds_the_kinds_links_and_mirrors_a_missing_back_link(name, keys):
    # every link of the file jittered and delayed; the mirrored uart_up takes
    # neither, since the offset exchange runs before any delay is armed
    spec = load_scenario(name)
    links = json.loads(json.dumps(spec.links))
    for entry in links.values():
        entry.update(jitter_us=300, injected_delay_us=7000)
    graph = _build_graph(dataclasses.replace(spec, links=links))
    assert set(graph.links) == keys
    for key, link in graph.links.items():
        assert (link.cfg.name, link.src.name, link.dst.name) == (key, *LINKS[key][:2])
    if "uart_up" in keys:
        up, down = graph.links["uart_up"].cfg, graph.links["uart_down"].cfg
        assert (up.bandwidth_bps, up.base_latency_us) == (down.bandwidth_bps,
                                                          down.base_latency_us)
        assert (up.jitter_us, up.injected_delay_us) == (0, 0)
        assert (down.jitter_us, down.injected_delay_us) == (300, 7000)


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


def test_streaming_period_floor_checked_at_load():
    # 160 Hz is a 6,250 us period: the readout fits, the 150 frame/s sensor does not
    spec = load_scenario("frontnet-latency")
    with pytest.raises(ConfigError):
        dataclasses.replace(spec, rate_hz=160.0)
    dataclasses.replace(spec, rate_hz=160.0, mode="serialized")


def test_time_ceiling_bounds_every_recorded_time():
    # the load-time check of a run's length stands on this bound: no record
    # of a golden case or of a legal corpus variant is past time_ceiling_us
    specs = [_spec(*case) for case in LEGAL]
    for doc in corpus_docs():
        with contextlib.suppress(ConfigError):
            specs.append(scenario_from_dict(doc))
    ran = 0
    for spec in specs:
        try:
            trace, _ = run_scenario(spec)
        except MetricsError:
            continue
        ran += 1
        assert max(abs(e.t_us) for e in trace.events) < spec.time_ceiling_us, spec.name
    assert ran > len(LEGAL) + 250


# --- compute_metrics on synthetic traces ---

def synthetic_trace(receipts, capture_starts=None):
    loop = EventLoop(VirtualClock(), name="n0")
    tr = TraceLog()
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


def _tuple_metrics(records, *, offset_us, inference_hz, steady_start_frame):
    """compute_metrics as it was defined on (frame, t_us) tuples, reading the
    records themselves."""
    def pairs(kind, subject):
        return [(e.frame, e.t_us) for e in records
                if (e.kind, e.subject) == (kind, subject) and e.frame is not None]
    receipts = sorted(pairs(Kind.STAGE_END, "sink"))
    steady = [(f, t) for f, t in receipts if f >= steady_start_frame]
    if len(steady) < 10:
        raise MetricsError(
            f"only {len(steady)} steady-state receipts past frame {steady_start_frame}; "
            f"need at least 10")
    t_first, t_last = steady[0][1], steady[-1][1]
    if t_last == t_first:
        raise MetricsError("empty steady-state window")
    closed_loop_hz = (len(steady) - 1) / ((t_last - t_first) / 1e6)
    starts = dict(pairs(Kind.STAGE_START, "capture"))
    lat = [t - starts[f] - offset_us for f, t in steady if f in starts]
    e2e_mean = e2e_p95 = None
    if lat:
        e2e_mean = (sum(lat) / len(lat)) / 1000.0
        e2e_p95 = sorted(lat)[max(1, math.ceil(0.95 * len(lat))) - 1] / 1000.0
    drop_pct = None
    if inference_hz:
        drop_pct = (1.0 - closed_loop_hz / inference_hz) * 100.0
        if not -2.0 <= drop_pct <= 100.0:
            raise MetricsError(f"drop_pct {drop_pct:.3f} outside [-2, 100]")
    rtt_starts = dict(pairs(Kind.STAGE_START, "rtt_probe"))
    rtt_ends = dict(pairs(Kind.STAGE_END, "rtt_probe"))
    rtt_ms = None
    if rtt_ends:
        samples = [rtt_ends[k] - rtt_starts[k] for k in sorted(rtt_ends)]
        rtt_ms = (sum(samples) / len(samples)) / 1000.0
    return Metrics(
        closed_loop_hz=closed_loop_hz, inference_hz=inference_hz, drop_pct=drop_pct,
        e2e_ms_mean=e2e_mean, e2e_ms_p95=e2e_p95, rtt_ms_mean=rtt_ms,
        frames_dropped=sum((e.kind, e.subject) == (Kind.DROP, "capture") for e in records),
        steady_receipts=len(steady), steady_start_frame=steady_start_frame,
        offset_us_applied=offset_us, offsets_estimated_us={})


def _random_metrics_records(rng):
    """Sink receipts on two nodes whose clocks differ, so a frame received on
    both may come later with an earlier time; frames received twice, in order
    or, in half the traces, out of order; capture starts, some of a frame
    twice; RTT probes, drops and other records. About one record in ten that
    is not a probe has no frame. A time step of 0 gives an empty steady window."""
    keys = [("host", Kind.STAGE_END, "sink")] * 6 + [
        ("stm32", Kind.STAGE_END, "sink"), ("host", Kind.STAGE_START, "sink"),
        ("gap8", Kind.STAGE_START, "capture"), ("gap8", Kind.STAGE_START, "capture"),
        ("gap8", Kind.DROP, "capture"), ("host", Kind.STAGE_START, "rtt_probe")]
    step, spread = rng.choice((0, 3, 40, 40)), rng.choice((0, 3))
    offsets = {"host": 0, "gap8": rng.randrange(-100, 100), "stm32": rng.choice((0, -500, 900))}
    records, t_us = [], 0
    for i in range(rng.randrange(5, 150)):
        t_us += rng.randrange(step + 1)
        node, kind, subject = rng.choice(keys)
        frame = None if rng.random() < 0.1 else max(0, i // 2 + rng.randrange(-spread, spread + 1))
        records.append(TraceEvent(t_us + offsets[node] * bool(step), node, kind, subject, frame))
        if subject == "rtt_probe":      # a probe's end follows its start, with its frame
            records[-1] = records[-1]._replace(frame=i)
            records.append(TraceEvent(t_us + rng.randrange(100), node, Kind.STAGE_END, subject, i))
    return records


def test_metrics_from_columns_equal_the_tuple_definition():
    outcomes = Counter()
    for seed in range(600):
        rng = random.Random(seed)
        records = _random_metrics_records(rng)
        trace = TraceLog()
        trace.events = records
        receipts = [e.frame for e in records if (e.kind, e.subject) == (Kind.STAGE_END, "sink")
                    and e.frame is not None] or [0]
        args = {"offset_us": rng.choice((0.0, 250.3)), "inference_hz": rng.choice((None, 5e4)),
                "steady_start_frame": min(receipts) + rng.choice((-2, 0, 0, 2, 10))}
        try:
            want = _tuple_metrics(records, **args)
        except MetricsError as exc:
            with pytest.raises(MetricsError) as got:
                compute_metrics(trace, **args)
            assert str(got.value) == str(exc), seed
            outcome = str(exc).split()[0]
        else:
            assert compute_metrics(trace, **args) == want, seed
            outcome = "metrics"
        outcomes[outcome] += 1
    # the metrics and each error path (too few receipts, an empty window, the
    # drop bound) come up often
    assert set(outcomes) == {"metrics", "only", "empty", "drop_pct"}, outcomes
    assert min(outcomes.values()) >= 50, outcomes


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
    captured = {f for f, _ in zip(*trace.columns(Kind.STAGE_END, "capture"))}
    inferred = {f for f, _ in zip(*trace.columns(Kind.STAGE_END, "inference"))}
    assert captured and captured <= inferred, sorted(captured - inferred)[:5]


def test_serialized_trigger_loop_pays_the_camera_setup():
    # a trigger capture takes setup + readout in either mode, so the serialized
    # loop's latency equals the pipelined one's and its period adds inference
    spec = load_scenario("imav-30")
    assert spec.capture_us == spec.trigger_setup_us + spec.readout_us
    _, (trace, serial) = run_named("imav-30", mode="serialized")
    _, (_, piped) = run_named("imav-30", mode="pipelined")
    assert serial.e2e_ms_mean == pytest.approx(piped.e2e_ms_mean, abs=1e-9)
    starts = dict(zip(*trace.columns(Kind.STAGE_START, "capture")))
    ends = dict(zip(*trace.columns(Kind.STAGE_END, "capture")))
    assert {ends[f] - starts[f] for f in ends} == {spec.capture_us}
    serial_spec = dataclasses.replace(spec, mode="serialized")
    assert serial.closed_loop_hz == pytest.approx(1e6 / expected_period_us(serial_spec),
                                                  rel=0.001)


def test_zero_byte_trigger_capture_takes_the_same_time_in_both_modes():
    # a frame of no bytes has nothing to read out, in the camera model and in
    # the serialized loop alike
    spec, (_, piped) = run_named("imav-30", mode="pipelined", image_bytes=0)
    _, (_, serial) = run_named("imav-30", mode="serialized", image_bytes=0)
    assert spec.capture_us == spec.trigger_setup_us
    assert serial.e2e_ms_mean == pytest.approx(piped.e2e_ms_mean, abs=1e-9)


@pytest.mark.parametrize("name", ["streaming-72hz", "remote-40hz"])
def test_sends_put_header_and_payload_and_the_buffers_own_memory_on_the_wire(monkeypatch, name):
    # every packet a link carries is its header and payload long; an image's
    # payload is all of one pool buffer's memory, not a copy and not a part
    pools, sent = [], []
    create, send = scenarios_mod.pool_create, Link.send

    def recording_pool(*args):
        pools.append(create(*args))
        return pools[-1]

    def recording_send(link, payload, nbytes, frame=None):
        sent.append((payload, nbytes))
        return send(link, payload, nbytes, frame=frame)

    monkeypatch.setattr(scenarios_mod, "pool_create", recording_pool)
    monkeypatch.setattr(Link, "send", recording_send)
    spec, (trace, _) = run_named(name)
    packets = [(pkt, nbytes) for pkt, nbytes in sent if isinstance(pkt, CpxPacket)]
    for pkt, nbytes in packets:
        assert nbytes == HEADER_BYTES + len(pkt.payload)
    images = [pkt for pkt, _ in packets
              if pkt.source == NODE_IDS["gap8"] and pkt.function == FUNCTION_APP_STREAM]
    captured, _ = trace.columns(Kind.STAGE_END, "capture")
    # each captured frame goes over spi, then on over wifi
    assert Counter(pkt.meta for pkt in images) == {frame: 2 for frame in captured}
    (pool,) = pools
    for pkt in images:
        assert any(pkt.payload.obj is buf.data for buf in pool.buffers)
        assert pkt.payload.nbytes == len(pkt.payload.obj) == spec.frame_bytes
