"""Golden outputs: every fixture in every mode and router mode, byte for byte.

``tests/golden/metrics.json`` holds the parsed ``metrics.json`` of each legal
(fixture, mode, router mode) case. ``tests/golden/domain_trace.json`` holds,
for the same cases, the record count and the SHA-256 of ``trace.csv``, which
holds domain records only: no Spawn, Suspend, Resume or EventComplete.
A refactor of the runtime or the device models must leave every simulated
number and every domain record unchanged, so any difference here is a bug
unless the change is shown to correct a wrong number.

``python tests/test_golden.py`` regenerates both files. Regenerate either one
only for a change shown to correct a number.
"""

import dataclasses
import hashlib
import heapq
import json
import pathlib

import pytest

from nanopipe import coro
from nanopipe.cpx import ROUTER_MODES
from nanopipe.errors import ConfigError
from nanopipe.pipeline import MODES, PIPELINED
from nanopipe.scenarios import list_scenarios, load_scenario, run_scenario
from nanopipe.trace import Kind

from conftest import csv_text

GOLDEN = pathlib.Path(__file__).parent / "golden" / "metrics.json"
DOMAIN_TRACE = pathlib.Path(__file__).parent / "golden" / "domain_trace.json"

RUNTIME_KINDS = (Kind.SPAWN, Kind.SUSPEND, Kind.RESUME, Kind.EVENT_COMPLETE)

CASES = [(name, mode, router)
         for name, _, _ in list_scenarios() for mode in MODES for router in ROUTER_MODES]
LEGAL = [(name, mode, router) for name, mode, router in CASES
         if mode == PIPELINED or load_scenario(name).kind != "stream"]


def _spec(name, mode, router):
    return dataclasses.replace(load_scenario(name), mode=mode, router_mode=router)


def _metrics_json(name, mode, router):
    _, metrics = run_scenario(_spec(name, mode, router))
    return metrics.to_json()


def _trace_digest(trace):
    return {"records": len(trace.events),
            "sha256": hashlib.sha256(csv_text(trace).encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_trace():
    return json.loads(DOMAIN_TRACE.read_text())


@pytest.mark.parametrize("name,mode,router", LEGAL)
def test_metrics_match_golden(golden, name, mode, router):
    expected = json.dumps(golden[f"{name}/{mode}/{router}"], indent=2, sort_keys=True) + "\n"
    assert _metrics_json(name, mode, router) == expected


@pytest.mark.parametrize("name,mode,router", LEGAL)
def test_domain_trace_matches_golden(golden_trace, name, mode, router):
    trace, _ = run_scenario(_spec(name, mode, router))
    assert not [e for e in trace.events if e.kind in RUNTIME_KINDS]
    assert _trace_digest(trace) == golden_trace[f"{name}/{mode}/{router}"]


@pytest.mark.parametrize("name,mode,router", [c for c in CASES if c not in LEGAL])
def test_illegal_cases_rejected(name, mode, router):
    with pytest.raises(ConfigError):
        _spec(name, mode, router)


def test_metrics_hold_when_same_instant_timers_reverse(golden, golden_trace, monkeypatch):
    # timers due at the same instant fire in push order; pushing (due, -seq)
    # instead reverses that order, which may reorder records but must leave
    # every golden metrics.json unchanged
    monkeypatch.setattr(coro, "heappush", lambda heap, item: heapq.heappush(
        heap, (item[0], -item[1], *item[2:])))
    differ, reordered = [], 0
    for case in LEGAL:
        key = "/".join(case)
        trace, metrics = run_scenario(_spec(*case))
        if metrics.to_json() != json.dumps(golden[key], indent=2, sort_keys=True) + "\n":
            differ.append(key)
        reordered += _trace_digest(trace) != golden_trace[key]
    assert differ == []
    assert reordered > 0        # the patch reached the timer heap


def test_golden_covers_exactly_the_legal_cases(golden, golden_trace):
    legal = {"/".join(c) for c in LEGAL}
    assert set(golden) == legal
    assert set(golden_trace) == legal


if __name__ == "__main__":
    for path, make in ((GOLDEN, lambda *c: json.loads(_metrics_json(*c))),
                       (DOMAIN_TRACE, lambda *c: _trace_digest(run_scenario(_spec(*c))[0]))):
        out = {"/".join(c): make(*c) for c in LEGAL}
        path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(out)} cases to {path}")
