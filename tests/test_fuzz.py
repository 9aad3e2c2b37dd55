"""Fuzzed scenario files: every input either runs or is a clean config error.

Each example mutates a shipped fixture: schema fields get wrong-typed or
out-of-range values (or ordinary ones), and link entries are added; or its
durations, offsets and rate get large magnitudes. The CLI must then exit 0
or 2, never 1 and never with an uncaught exception.
"""

import json
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nanopipe.scenarios as scenarios
import nanopipe.vnode as vnode
from nanopipe.cli import EXIT_CONFIG, EXIT_OK, main

FIXTURES = sorted((pathlib.Path(scenarios.__file__).parent / "fixtures").glob("*.json"))
LINK_NAMES = tuple(vnode.LINKS)

# small magnitudes only: a legal value must not make a run slow or large
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 130), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1))


def exit_code(doc):
    """What ``nanopipe run`` exits with on the scenario file ``doc``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzzed.json"
        path.write_text(json.dumps(doc))
        return main(["run", "--scenario", str(path), "--out", str(pathlib.Path(tmp) / "out")])


@st.composite
def mutated_fixture(draw):
    doc = json.loads(draw(st.sampled_from(FIXTURES)).read_text())
    for _ in range(draw(st.integers(1, 3))):
        block = draw(st.sampled_from(("scenario", "camera", "router", "offsets_us",
                                      "links", "extra link")))
        if block == "scenario":
            doc[draw(st.sampled_from(sorted(scenarios._FIELDS["scenario"])))] = draw(VALUES)
        elif block == "extra link":
            if isinstance(doc.get("links"), dict):
                doc["links"][draw(st.sampled_from(LINK_NAMES))] = {
                    "bandwidth_bps": draw(st.integers(1, 10**7))}
        elif block == "links":
            links = doc.get("links")
            if isinstance(links, dict) and links:
                entry = links[draw(st.sampled_from(sorted(links)))]
                if isinstance(entry, dict):
                    entry[draw(st.sampled_from(sorted(scenarios._FIELDS["links"])))] = \
                        draw(VALUES)
        elif isinstance(doc.setdefault(block, {}), dict):
            doc[block][draw(st.sampled_from(sorted(scenarios._FIELDS[block])))] = draw(VALUES)
    return doc


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_fixture())
def test_mutated_fixture_runs_or_exits_2(doc):
    assert exit_code(doc) in (EXIT_OK, EXIT_CONFIG)


# large magnitudes: durations and offsets up to 2**70 us, a rate near 0 Hz.
# Each keeps the fixture's frame count, so that a legal one stays short
DURATIONS = {"scenario": ("inference_us", "host_compute_us"),
             "camera": ("readout_us", "trigger_setup_us"),
             "links": ("base_latency_us", "injected_delay_us", "jitter_us")}


@st.composite
def stretched_fixture(draw):
    doc = json.loads(draw(st.sampled_from(FIXTURES)).read_text())
    for _ in range(draw(st.integers(1, 3))):
        block = draw(st.sampled_from(("scenario", "camera", "links", "offsets_us", "rate_hz")))
        if block == "rate_hz":
            doc["rate_hz"] = draw(st.floats(min_value=5e-324, max_value=1e-3))
        elif block == "offsets_us":
            doc.setdefault("offsets_us", {})[draw(st.sampled_from(vnode.NODE_NAMES))] = \
                draw(st.integers(-2**70, 2**70))
        else:
            target = {"scenario": doc, "camera": doc.setdefault("camera", {}),
                      "links": doc["links"][draw(st.sampled_from(sorted(doc["links"])))]}[block]
            target[draw(st.sampled_from(DURATIONS[block]))] = draw(st.integers(0, 2**70))
    return doc


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stretched_fixture())
def test_stretched_fixture_runs_or_exits_2(doc):
    assert exit_code(doc) in (EXIT_OK, EXIT_CONFIG)
