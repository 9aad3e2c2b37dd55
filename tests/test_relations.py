"""Relations between two runs of one scenario that need no oracle.

Most tests draw seeded variants of the shipped fixtures with ``variant`` from
``scripts/variants.py``, set every link's jitter to 0, run each
variant twice with one thing changed, and check how the two runs' metrics
relate. A variant that does not load, or gives too few receipts for metrics,
is illegal and skipped. The clock-offset relation runs the shipped fixtures
themselves. The router relation compares whole outputs, on the remote and
stream fixtures and on variants of them with their jitter kept. A relation
that fails is a bug in the simulator.
"""

import copy
import json
import pathlib
import random
import sys

import pytest

import nanopipe.scenarios as scenarios
from nanopipe.errors import ConfigError, MetricsError
from nanopipe.scenarios import run_scenario, scenario_from_dict

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from variants import NODES, outcome, variant  # noqa: E402

FIXTURES = [json.loads(p.read_text()) for p in
            sorted((pathlib.Path(scenarios.__file__).parent / "fixtures").glob("*.json"))]


def jitter_free_variants(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        doc = variant(rng.choice(FIXTURES), rng)
        for link in doc["links"].values():
            link["jitter_us"] = 0
        yield doc


def test_variants_draw_offsets_for_the_schema_nodes():
    # an offset for a node the schema lacks makes a draw illegal, and its
    # relations go unchecked
    assert NODES == scenarios.NODE_NAMES


def metrics(doc, **changes):
    """The run's metrics with ``changes`` applied, or None for an illegal variant."""
    doc = copy.deepcopy(doc)
    doc.update(changes)
    try:
        return run_scenario(scenario_from_dict(doc))[1]
    except (ConfigError, MetricsError):
        return None


@pytest.mark.parametrize("seed", [21, 22])
def test_pipelining_adds_no_latency_when_serialized_keeps_up(seed):
    # the paper's "ideal end-to-end latency, i.e. zero overhead due to
    # serialized tasks": where one task per frame keeps the camera's rate,
    # the pipelined loop's frames take exactly as long
    pairs = 0
    for doc in jitter_free_variants(seed, 300):
        if doc["kind"] == "stream":
            continue
        ser, pip = metrics(doc, mode="serialized"), metrics(doc, mode="pipelined")
        if ser is None or pip is None:
            continue
        camera_hz = 1e6 / scenario_from_dict(doc).frame_period_us
        if abs(ser.closed_loop_hz - camera_hz) > 1e-9 * camera_hz:
            continue
        assert pip.e2e_ms_mean == ser.e2e_ms_mean, doc
        pairs += 1
    assert pairs >= 30


@pytest.mark.parametrize("seed", [11, 12])
def test_more_buffers_never_lower_the_rate(seed):
    pairs = 0
    for doc in jitter_free_variants(seed, 150):
        fewer, more = metrics(doc), metrics(doc, pool_size=doc["pool_size"] + 1)
        if fewer is None or more is None:
            continue
        assert more.closed_loop_hz >= fewer.closed_loop_hz, doc
        pairs += 1
    assert pairs >= 50


@pytest.mark.parametrize("seed", [11, 12])
def test_pipelining_never_lowers_the_rate_from_two_buffers(seed):
    # a single buffer is left out until the camera's frame grid and the
    # order of same-instant events are decided for both modes
    pairs = 0
    for doc in jitter_free_variants(seed, 150):
        if doc["kind"] == "stream" or doc["pool_size"] < 2:
            continue
        ser, pip = metrics(doc, mode="serialized"), metrics(doc, mode="pipelined")
        if ser is None or pip is None:
            continue
        assert pip.closed_loop_hz >= ser.closed_loop_hz, doc
        pairs += 1
    assert pairs >= 30


def metrics_json(doc, offsets):
    doc = copy.deepcopy(doc)
    doc["offsets_us"] = offsets
    return json.loads(run_scenario(scenario_from_dict(doc))[1].to_json())


@pytest.mark.parametrize("doc", FIXTURES, ids=lambda doc: doc["name"])
def test_clock_offsets_change_nothing(doc):
    # a node's clock offset moves its local timestamps, not what it does: a
    # common shift changes no metric, and independent offsets change only
    # the estimates of them
    base = {node: doc.get("offsets_us", {}).get(node, 0) for node in scenarios.NODE_NAMES}
    ref = metrics_json(doc, base)
    for shift in (1234, -777):
        assert metrics_json(doc, {n: v + shift for n, v in base.items()}) == ref, shift
    estimates = ("offset_us_applied", "offsets_estimated_us")
    rest = {key: value for key, value in ref.items() if key not in estimates}
    rng = random.Random(doc["name"])
    for _ in range(2):
        offsets = {node: rng.randint(-5000, 5000) for node in scenarios.NODE_NAMES}
        got = metrics_json(doc, offsets)
        assert {key: value for key, value in got.items() if key not in estimates} == rest, offsets
        assert got["offsets_estimated_us"] != ref["offsets_estimated_us"]    # they reached the run


ROUTED = [doc for doc in FIXTURES if doc["kind"] in ("remote", "stream")]


def router_outcomes(doc, tmp_path):
    """The outcomes (``variants.outcome``) of ``doc`` with the baseline router
    copying at 0 ns per byte, and with the zerocopy router at depth 1."""
    baseline, zerocopy = copy.deepcopy(doc), copy.deepcopy(doc)
    baseline["router_mode"] = "baseline"
    baseline.setdefault("router", {})["copy_ns_per_byte"] = 0
    zerocopy["router_mode"] = "zerocopy"
    zerocopy.setdefault("router", {})["queue_capacity"] = 1
    return outcome(baseline, tmp_path / "baseline.csv"), outcome(zerocopy, tmp_path / "zerocopy.csv")


def test_baseline_router_is_the_zerocopy_router_at_depth_1_on_the_fixtures(tmp_path):
    # the baseline router holds one packet and copies it; at 0 ns per byte
    # the copy takes no time, so the run is the zerocopy run at depth 1, the
    # same metrics.json and the same trace.csv byte for byte
    legal = 0
    for doc in ROUTED:
        for mode in ("pipelined", "serialized"):
            baseline, zerocopy = router_outcomes(dict(doc, mode=mode), tmp_path)
            assert baseline == zerocopy, (doc["name"], mode)
            legal += "error" not in baseline
    assert legal == 7


def test_baseline_router_is_the_zerocopy_router_at_depth_1_on_variants(tmp_path):
    # the variants keep their jitter and their drawn queue depth, which the
    # baseline router ignores; an illegal variant must fail the same way
    rng, legal = random.Random(31), 0
    for _ in range(168):
        doc = variant(rng.choice(ROUTED), rng)
        baseline, zerocopy = router_outcomes(doc, tmp_path)
        assert baseline == zerocopy, doc
        legal += "error" not in baseline
    assert legal >= 80
