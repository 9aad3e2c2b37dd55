"""Seeded random variants of the shipped fixtures, and the digest of a run of one.

``variant`` draws one variant of a fixture document. It varies the mode,
router mode, pool size, queue depth, link latencies (0 included), bandwidth,
jitter, clock offsets, RTT probes, the camera mode and the stage durations and
sizes: camera readout and trigger setup, on-board and host compute, and the
image size (0 included for each). Some draws are illegal. ``outcome`` runs one
variant and gives the SHA-256 of its ``metrics.json`` and of the ``trace.csv``
that ``write_csv`` writes, or, for an illegal variant, the type of the
exception it raised.

``scripts/compare_variants.py`` compares these outcomes between two source
trees, ``tests/test_variant_corpus.py`` against a committed corpus, and
``tests/test_relations.py`` draws its variants here.
"""
from __future__ import annotations

import copy
import hashlib
import random

NODES = ("stm32", "gap8", "esp32", "host")


def _duration(rng: random.Random, current: int) -> int:
    """The current duration, 0, or a fresh one up to twice the current."""
    return rng.choice((current, current, 0, rng.randrange(2 * current + 1000)))


def variant(fixture: dict, rng: random.Random) -> dict:
    """One random variant of a fixture document; some of them are illegal."""
    doc = copy.deepcopy(fixture)
    doc["seed"] = rng.randrange(1000)
    doc["frames"] = rng.randrange(50, 121)
    doc["mode"] = rng.choice(("pipelined", "serialized"))
    doc["router_mode"] = rng.choice(("zerocopy", "baseline"))
    doc["pool_size"] = rng.randrange(1, 5)
    doc.setdefault("router", {})["queue_capacity"] = rng.randrange(1, 9)
    if doc["kind"] == "remote":
        doc["rtt_probe_rounds"] = rng.choice((0, 0, 1, 3))
    for link in doc["links"].values():
        link["bandwidth_bps"] = max(1, int(link["bandwidth_bps"] * rng.uniform(0.5, 2.0)))
        link["base_latency_us"] = rng.choice((0, 0, rng.randrange(5000)))
        link["jitter_us"] = rng.choice((0, 0, rng.randrange(3000)))
        if rng.random() < 0.2:
            link["injected_delay_us"] = rng.randrange(20000)
    doc["offsets_us"] = {node: rng.choice((0, rng.randrange(5000))) for node in NODES
                         if rng.random() < 0.6}
    camera = doc.setdefault("camera", {})
    camera["mode"] = rng.choice(("trigger", "streaming"))
    for key, default in (("readout_us", 8000), ("trigger_setup_us", 25333)):
        if key in camera or rng.random() < 0.5:
            camera[key] = _duration(rng, camera.get(key, default))
    compute = {"onboard": "inference_us", "remote": "host_compute_us"}.get(doc["kind"])
    if compute:
        doc[compute] = _duration(rng, doc.get(compute, 0))
    if rng.random() < 0.5:
        doc["image_bytes"] = rng.choice((0, rng.randrange(1, 40000)))
    if "rate_hz" in doc and rng.random() < 0.5:
        doc["rate_hz"] = round(doc["rate_hz"] * rng.uniform(0.5, 1.5), 3)
    return doc


def outcome(doc: dict, csv_path) -> dict:
    """Run ``doc``, writing its trace to ``csv_path``; return the SHA-256 of
    its ``metrics.json`` and ``trace.csv``, or ``{"error": <exception type>}``."""
    # imported here, so that compare_variants' worker chooses the package first
    from nanopipe.scenarios import run_scenario, scenario_from_dict
    try:
        trace, metrics = run_scenario(scenario_from_dict(doc))
    except Exception as exc:        # an illegal variant: keep the type only
        return {"error": type(exc).__name__}
    trace.write_csv(csv_path)
    with open(csv_path, "rb") as fp:
        trace_sha = hashlib.sha256(fp.read()).hexdigest()
    return {"metrics_sha256": hashlib.sha256(metrics.to_json().encode()).hexdigest(),
            "trace_sha256": trace_sha}
