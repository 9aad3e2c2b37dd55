"""CLI behavior: outputs, determinism, oracle gate, exit codes."""

import json
import os

import pytest

from nanopipe.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main
from nanopipe.scenarios import compute_metrics
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
    ("mtu", 0),
    ("base_latency_us", -1),
    ("injected_delay_us", -5),
    ("jitter_us", -3000),
    ("jitter_us", 1.5),
    ("bandwith_bps", 20000),        # typo of bandwidth_bps
    ("latency_us", 100),            # not a link field
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
    (("inference_us",), -5000),
    (("camera", "resolution"), [32]),
    (("camera", "readout"), 5000),                      # typo of readout_us
    (("links", "wifi_upp"), {"bandwidth_bps": 20000}),  # names no edge
    (("router", "queue_depth"), 4),                     # typo of queue_capacity
    (("router", "copy_ns_per_byte"), -1.0),
    (("offsets_us", "tpu"), 5),                         # not a node
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


def test_directory_as_scenario_is_config_error(tmp_path, capsys):
    rc = run_cli("run", "--scenario", str(tmp_path), "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


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
    trace = TraceLog.from_csv(out / "trace.csv")
    again = compute_metrics(
        trace,
        offset_us=stored["offset_us_applied"],
        inference_hz=stored["inference_hz"],
        steady_start_frame=stored["steady_start_frame"],
        offsets_estimated_us=stored["offsets_estimated_us"],
    )
    assert again.to_dict() == stored


def test_write_csv_in_chunks_matches_to_csv(tmp_path):
    # more records than one 4,096-line chunk, and a last chunk that is partial
    trace = TraceLog()
    trace.events = [TraceEvent(i, "gap8", Kind.STAGE_END, "inference", i if i % 3 else None)
                    for i in range(4096 * 2 + 5)]
    trace.write_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == trace.to_csv().encode()


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
