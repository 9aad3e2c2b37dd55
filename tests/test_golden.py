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
import json
import pathlib

import pytest

from nanopipe.cpx import ROUTER_MODES
from nanopipe.errors import ConfigError
from nanopipe.pipeline import MODES, PIPELINED
from nanopipe.scenarios import list_scenarios, load_scenario, run_scenario
from nanopipe.trace import Kind

GOLDEN = pathlib.Path(__file__).parent / "golden" / "metrics.json"
DOMAIN_TRACE = pathlib.Path(__file__).parent / "golden" / "domain_trace.json"

RUNTIME_KINDS = (Kind.SPAWN, Kind.SUSPEND, Kind.RESUME, Kind.EVENT_COMPLETE)

CASES = [(name, mode, router)
         for name, _, _ in list_scenarios() for mode in MODES for router in ROUTER_MODES]


def _spec(name, mode, router):
    return dataclasses.replace(load_scenario(name), mode=mode, router_mode=router)


def _legal(name, mode):
    return mode == PIPELINED or load_scenario(name).kind != "stream"


def _metrics_json(name, mode, router):
    _, metrics = run_scenario(_spec(name, mode, router))
    return metrics.to_json()


def _trace_digest(trace):
    return {"records": len(trace.events),
            "sha256": hashlib.sha256(trace.to_csv().encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_trace():
    return json.loads(DOMAIN_TRACE.read_text())


@pytest.mark.parametrize("name,mode,router",
                         [c for c in CASES if _legal(c[0], c[1])])
def test_metrics_match_golden(golden, name, mode, router):
    expected = json.dumps(golden[f"{name}/{mode}/{router}"], indent=2, sort_keys=True) + "\n"
    assert _metrics_json(name, mode, router) == expected


@pytest.mark.parametrize("name,mode,router",
                         [c for c in CASES if _legal(c[0], c[1])])
def test_domain_trace_matches_golden(golden_trace, name, mode, router):
    trace, _ = run_scenario(_spec(name, mode, router))
    assert not [e for e in trace.events if e.kind in RUNTIME_KINDS]
    assert _trace_digest(trace) == golden_trace[f"{name}/{mode}/{router}"]


@pytest.mark.parametrize("name,mode,router",
                         [c for c in CASES if not _legal(c[0], c[1])])
def test_illegal_cases_rejected(name, mode, router):
    with pytest.raises(ConfigError):
        _spec(name, mode, router)


def test_golden_covers_exactly_the_legal_cases(golden, golden_trace):
    legal = {f"{n}/{m}/{r}" for n, m, r in CASES if _legal(n, m)}
    assert set(golden) == legal
    assert set(golden_trace) == legal


if __name__ == "__main__":
    legal = [(n, m, r) for n, m, r in CASES if _legal(n, m)]
    for path, make in ((GOLDEN, lambda *c: json.loads(_metrics_json(*c))),
                       (DOMAIN_TRACE, lambda *c: _trace_digest(run_scenario(_spec(*c))[0]))):
        out = {"/".join(c): make(*c) for c in legal}
        path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(out)} cases to {path}")
