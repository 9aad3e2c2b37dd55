"""Golden metrics: every fixture in every mode and router mode, byte for byte.

``tests/golden/metrics.json`` holds the parsed ``metrics.json`` of each legal
(fixture, mode, router mode) case. A refactor of the runtime or the device
models must leave every simulated number unchanged, so any difference here is
a bug unless the change is shown to correct a wrong number.

Regenerate (only after such a correction) with ``python tests/test_golden.py``.
"""

import dataclasses
import json
import pathlib

import pytest

from nanopipe.cpx import ROUTER_MODES
from nanopipe.errors import ConfigError
from nanopipe.pipeline import MODES, PIPELINED
from nanopipe.scenarios import list_scenarios, load_scenario, run_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden" / "metrics.json"

CASES = [(name, mode, router)
         for name, _, _ in list_scenarios() for mode in MODES for router in ROUTER_MODES]


def _spec(name, mode, router):
    return dataclasses.replace(load_scenario(name), mode=mode, router_mode=router)


def _legal(name, mode):
    return mode == PIPELINED or load_scenario(name).kind != "stream"


def _metrics_json(name, mode, router):
    _, metrics = run_scenario(_spec(name, mode, router))
    return metrics.to_json()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,mode,router",
                         [c for c in CASES if _legal(c[0], c[1])], ids="-".join)
def test_metrics_match_golden(golden, name, mode, router):
    expected = json.dumps(golden[f"{name}/{mode}/{router}"], indent=2, sort_keys=True) + "\n"
    assert _metrics_json(name, mode, router) == expected


@pytest.mark.parametrize("name,mode,router",
                         [c for c in CASES if not _legal(c[0], c[1])], ids="-".join)
def test_illegal_cases_rejected(name, mode, router):
    with pytest.raises(ConfigError):
        _spec(name, mode, router)


def test_golden_covers_exactly_the_legal_cases(golden):
    assert set(golden) == {f"{n}/{m}/{r}" for n, m, r in CASES if _legal(n, m)}


if __name__ == "__main__":
    out = {f"{n}/{m}/{r}": json.loads(_metrics_json(n, m, r))
           for n, m, r in CASES if _legal(n, m)}
    GOLDEN.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN}")
