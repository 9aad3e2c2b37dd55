"""CLI behavior: outputs, determinism, oracle gate, exit codes."""

import json
import os

import pytest

from nanopipe import cli
from nanopipe.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main
from nanopipe.scenarios import compute_metrics, fixture_dir
from nanopipe.trace import CSV_HEADER, Kind, TraceEvent, TraceLog


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", "--scenario", "pulp-frontnet-48", "--out", str(out))
    assert rc == EXIT_OK
    trace_csv = (out / "trace.csv").read_text()
    metrics = json.loads((out / "metrics.json").read_text())
    assert trace_csv.splitlines()[0] == CSV_HEADER
    assert metrics["closed_loop_hz"] == pytest.approx(48.0, rel=0.02)
    assert "closed loop" in capsys.readouterr().out


def test_same_seed_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--scenario", "pulp-frontnet-48", "--seed", "1",
                   "--out", str(a)) == EXIT_OK
    assert run_cli("run", "--scenario", "pulp-frontnet-48", "--seed", "1",
                   "--out", str(b)) == EXIT_OK
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def test_check_gate_passes_on_shipped_fixtures(tmp_path):
    for args in (("--scenario", "pulp-frontnet-48", "--check"),
                 ("--scenario", "pulp-frontnet-48", "--mode", "serialized", "--check"),
                 ("--scenario", "streaming-72hz", "--router", "baseline", "--check")):
        assert run_cli("run", *args, "--out", str(tmp_path)) == EXIT_OK


def test_check_gate_fails_on_oracle_disagreement(tmp_path, capsys, monkeypatch):
    import nanopipe.cli as cli_mod
    monkeypatch.setattr(cli_mod, "expected_period_us", lambda spec: 50000)  # 20 Hz
    rc = run_cli("run", "--scenario", "pulp-frontnet-48", "--check",
                 "--out", str(tmp_path))
    assert rc == EXIT_CHECK_FAILED
    assert "FAILED" in capsys.readouterr().out


def test_check_gate_skips_when_oracle_unavailable(tmp_path, capsys):
    rc = run_cli("run", "--scenario", "remote-40hz", "--mode", "serialized",
                 "--check", "--out", str(tmp_path))
    assert rc == EXIT_OK
    assert "check skipped" in capsys.readouterr().err


def test_unknown_scenario_is_config_error(tmp_path, capsys):
    rc = run_cli("run", "--scenario", "no-such-thing", "--out", str(tmp_path))
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_invalid_scenario_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "kind": "onboard", "frames": 5,
                               "rate_hz": 10.0,
                               "links": {"uart_down": {"bandwidth_bps": 1000}}}))
    rc = run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("field,value", [
    ("bandwidth_bps", 0),
    ("bandwidth_bps", -1000),
    ("bandwidth_bps", "20000"),
    ("injected_delay_us", "500"),
    ("base_latency_us", -1),
    ("injected_delay_us", -5),
    ("jitter_us", -3000),
    ("jitter_us", 1.5),
    ("bandwith_bps", 20000),        # typo of bandwidth_bps
    ("latency_us", 100),            # not a link field
    ("mtu", 0),                     # not a link field: a message travels whole
], ids=lambda v: str(v))
def test_malformed_link_field_is_config_error(tmp_path, capsys, field, value):
    link = {"bandwidth_bps": 20000, field: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "kind": "onboard", "frames": 60,
                               "rate_hz": 20.0, "inference_us": 10000,
                               "camera": {"resolution": [32, 32], "readout_us": 5000},
                               "links": {"uart_down": link}}))
    rc = run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("where,value", [
    (("frames",), "100"),
    (("pool_size",), "2"),
    (("rate_hz",), "20"),
    (("rate_hz",), 5e-324),                             # no finite frame period
    pytest.param(("rate_hz",), 10**400, id="('rate_hz',)-10**400"),    # beyond a float
    pytest.param(("inference_hz",), 10**400, id="('inference_hz',)-10**400"),
    (("inference_us",), -5000),
    (("camera", "resolution"), [32]),
    (("camera", "readout"), 5000),                      # typo of readout_us
    (("links", "wifi_upp"), {"bandwidth_bps": 20000}),  # names no edge
    (("router", "queue_depth"), 4),                     # typo of queue_capacity
    (("router", "copy_ns_per_byte"), -1.0),
    (("offsets_us", "tpu"), 5),                         # not a node
    (("offsets_us", "nrf51"), 5),                       # no scenario links it
], ids=lambda v: str(v))
def test_malformed_scenario_field_is_config_error(tmp_path, capsys, where, value):
    doc = {"name": "bad", "kind": "onboard", "frames": 60, "rate_hz": 20.0,
           "inference_us": 10000,
           "camera": {"resolution": [32, 32], "readout_us": 5000},
           "links": {"uart_down": {"bandwidth_bps": 20000}}}
    block = doc
    for key in where[:-1]:
        block = block.setdefault(key, {})
    block[where[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    assert where[-1] in capsys.readouterr().err


@pytest.mark.parametrize("fixture,where,value", [
    ("remote-sweep", ("image_bytes",), 10**12),
    ("remote-sweep", ("camera", "resolution"), [100000, 100000]),
    ("remote-sweep", ("result_bytes",), 10**12),
    ("pulp-frontnet-48", ("pool_size",), 10**9),     # with image_bytes 0, below
], ids=lambda v: str(v))
def test_oversized_buffers_are_config_error(tmp_path, capsys, monkeypatch, fixture, where,
                                            value):
    # rejected at load: the run, which would allocate the buffers, never starts
    import nanopipe.cli as cli_mod
    monkeypatch.setattr(cli_mod, "run_scenario", lambda spec: pytest.fail("the run started"))
    doc = json.loads((fixture_dir() / f"{fixture}.json").read_text())
    if where == ("pool_size",):
        doc["image_bytes"] = 0
    block = doc
    for key in where[:-1]:
        block = block[key]
    block[where[-1]] = value
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    rc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    assert "platform memory" in capsys.readouterr().err


@pytest.mark.parametrize("fixture,edits", [
    ("pulp-frontnet-48", {("links", "uart_down", "base_latency_us"): 2**62}),
    ("pulp-frontnet-48", {("links", "uart_down", "injected_delay_us"): 2**63}),
    ("pulp-frontnet-48", {("offsets_us", "gap8"): 2**63}),
    ("pulp-frontnet-48", {("inference_us",): 2**63}),
    ("pulp-frontnet-48", {("rate_hz",): 1e-300}),
    ("streaming-72hz", {("pool_size",): 1, ("image_bytes",): 8 * 2**20,
                        ("links", "spi_up", "bandwidth_bps"): 1, ("frames",): 140_000}),
    ("streaming-72hz", {("router_mode",): "baseline", ("router", "copy_ns_per_byte"): 1e300}),
    ("streaming-72hz", {("links", "wifi_up", "jitter_us"): 2**62}),
], ids=lambda v: str(v))
def test_a_run_past_the_trace_time_range_is_config_error(tmp_path, capsys, fixture, edits):
    # each of these ran until a trace time overflowed array('q'), and exited 1
    doc = json.loads((fixture_dir() / f"{fixture}.json").read_text())
    for where, value in edits.items():
        block = doc
        for key in where[:-1]:
            block = block[key]
        block[where[-1]] = value
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    rc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: a run of this scenario could reach 2**62 us")


def test_trigger_capture_of_no_time_runs(tmp_path, capsys):
    # setup and readout both 0: the camera sets no rate ceiling
    doc = json.loads((fixture_dir() / "imav-30.json").read_text())
    doc["camera"].update(trigger_setup_us=0, readout_us=0)
    path = tmp_path / "instant.json"
    path.write_text(json.dumps(doc))
    for mode in ("pipelined", "serialized"):
        rc = run_cli("run", "--scenario", str(path), "--mode", mode,
                     "--out", str(tmp_path / mode))
        assert rc == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err


def test_stream_with_trigger_camera_passes_check(tmp_path, capsys):
    # the fill producer captures for the trigger camera's setup and readout,
    # the capture time the oracle assumes
    doc = json.loads((fixture_dir() / "streaming-72hz.json").read_text())
    doc["camera"]["mode"] = "trigger"
    path = tmp_path / "stream-trigger.json"
    path.write_text(json.dumps(doc))
    rc = run_cli("run", "--scenario", str(path), "--check", "--out", str(tmp_path / "o"))
    assert rc == EXIT_OK, capsys.readouterr().err


def test_too_few_steady_receipts_is_exit_2(tmp_path, capsys):
    # 50 frames from frame 45 on leave 5 receipts: a MetricsError
    doc = json.loads((fixture_dir() / "fcnn-39.json").read_text())
    doc.update(frames=50, steady_start_frame=45)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    rc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    assert "steady-state receipts" in capsys.readouterr().err


def test_directory_as_scenario_is_config_error(tmp_path, capsys):
    rc = run_cli("run", "--scenario", str(tmp_path), "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_fixture_name_is_not_shadowed_by_a_directory_of_that_name(tmp_path, monkeypatch):
    # a first run's --out directory takes the fixture's name in the working directory
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert run_cli("run", "--scenario", "pulp-frontnet-48",
                       "--out", "pulp-frontnet-48") == EXIT_OK


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_unusable_out_is_config_error_before_the_run(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")

    def no_run(spec):
        raise AssertionError("the scenario ran before --out was checked")
    monkeypatch.setattr(cli, "run_scenario", no_run)
    assert run_cli("run", "--scenario", "pulp-frontnet-48", "--out", out) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def test_list_scenarios_names_every_fixture(capsys):
    assert run_cli("list-scenarios") == EXIT_OK
    out = capsys.readouterr().out
    for name in ("pulp-frontnet-48", "nanoflownet-11", "remote-40hz",
                 "remote-40hz-delay500", "streaming-72hz", "cereda-remote-40",
                 "fcnn-39", "imav-30", "remote-sweep"):
        assert name in out


def test_scenario_dir_env_override(tmp_path, capsys, monkeypatch):
    doc = {
        "name": "only-here", "kind": "onboard", "frames": 60, "rate_hz": 20.0,
        "inference_us": 10000,
        "camera": {"mode": "streaming", "resolution": [32, 32], "readout_us": 5000},
        "links": {"uart_down": {"bandwidth_bps": 20000}},
    }
    (tmp_path / "only-here.json").write_text(json.dumps(doc))
    monkeypatch.setenv("NANOPIPE_SCENARIO_DIR", str(tmp_path))
    assert run_cli("list-scenarios") == EXIT_OK
    out = capsys.readouterr().out
    assert "only-here" in out and "pulp-frontnet-48" not in out
    assert run_cli("run", "--scenario", "only-here", "--out",
                   str(tmp_path / "o")) == EXIT_OK


@pytest.mark.parametrize("content", [
    {"kind": "onboard"},                # no name
    {"name": 3, "kind": "onboard"},     # a name that is no string
    {"name": "x", "aliases": 5},
    ["not", "an", "object"],
    "{not json",
], ids=lambda v: str(v))
def test_bad_fixture_file_is_config_error(tmp_path, capsys, monkeypatch, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content if isinstance(content, str) else json.dumps(content))
    monkeypatch.setenv("NANOPIPE_SCENARIO_DIR", str(tmp_path))
    assert run_cli("list-scenarios") == EXIT_CONFIG
    assert str(bad) in capsys.readouterr().err
    assert run_cli("run", "--scenario", "imav-30", "--out", str(tmp_path / "o")) == EXIT_CONFIG
    assert str(bad) in capsys.readouterr().err


def test_metrics_recomputed_from_csv_match_json(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "remote-40hz", "--out", str(out)) == EXIT_OK
    stored = json.loads((out / "metrics.json").read_text())
    header, *rows = (out / "trace.csv").read_text().splitlines()
    assert header == CSV_HEADER
    trace = TraceLog()
    trace.events = [(int(t_us), node, kind, subject, int(frame) if frame else None)
                    for t_us, node, kind, subject, frame in (row.split(",") for row in rows)]
    again = compute_metrics(
        trace,
        offset_us=stored["offset_us_applied"],
        inference_hz=stored["inference_hz"],
        steady_start_frame=stored["steady_start_frame"],
        offsets_estimated_us=stored["offsets_estimated_us"],
    )
    assert again.to_dict() == stored


def test_write_csv_in_chunks_matches_a_formatter(tmp_path):
    # the export against a formatter of its own, around the 4,096-record
    # chunk edges, with frames of None, 0 and -1 and subjects that a
    # %-format would read as conversions
    nodes, subjects, frames = ("gap8", "esp32"), ("inference", "100% %d", "%s"), (None, 0, -1, 7)
    for n in (0, 1, 4095, 4096, 4097, 8197):
        trace = TraceLog()
        trace.events = [TraceEvent(i * 3 - 5, nodes[i % 2], Kind.STAGE_END, subjects[i % 3],
                                   frames[i % 4]) for i in range(n)]
        expected = CSV_HEADER + "\n" + "".join(
            f"{e.t_us},{e.node},{e.kind},{e.subject},{'' if e.frame is None else e.frame}\n"
            for e in trace.events)
        trace.write_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == expected.encode(), n


@pytest.mark.parametrize("command", ["run", "bench", "list-scenarios"])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nanopipe")


def test_bench_command_prints_report(capsys):
    assert run_cli("bench", "--kind", "event_complete") == EXIT_OK
    out = capsys.readouterr().out
    assert "event_complete: median" in out
