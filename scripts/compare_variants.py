#!/usr/bin/env python3
"""Differential check of two source trees on random variants of the fixtures.

    python3 scripts/compare_variants.py OLD_SRC NEW_SRC COUNT [--seed N]

Each ``*_SRC`` is a ``src`` directory holding a ``nanopipe`` package, such as
that of a checkout of the parent commit and that of the working tree. The
script draws COUNT seeded variants of the shipped fixtures (those of NEW_SRC),
varying mode, router mode, pool size, queue depth, link latencies (0
included), bandwidth, jitter, clock offsets, RTT probes, the camera mode
and the stage durations and sizes: camera readout and trigger setup,
on-board and host compute, and the image size (0 included for each), and
runs every variant in both trees, each tree in its own child process. A
legal variant must give the same ``metrics.json`` and the same SHA-256 of
``trace.csv`` in both; an illegal one must raise the same exception type.
It prints a summary and exits 1 on any difference.

A change that claims to keep every simulated number runs this against its
parent, with a count in the thousands, so that tie orders the fixtures never
reach are compared too.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import pathlib
import random
import subprocess
import sys
import tempfile

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


def worker(src: str, docs_path: str) -> None:
    """Run every variant with the package in ``src``; print one JSON line each."""
    sys.path.insert(0, src)
    import nanopipe
    from nanopipe.scenarios import run_scenario, scenario_from_dict
    if not pathlib.Path(nanopipe.__file__).resolve().is_relative_to(pathlib.Path(src).resolve()):
        raise SystemExit(f"nanopipe imported from {nanopipe.__file__}, not from {src}")
    docs = json.loads(pathlib.Path(docs_path).read_text())
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = pathlib.Path(tmp) / "trace.csv"
        for doc in docs:
            try:
                trace, metrics = run_scenario(scenario_from_dict(doc))
                trace.write_csv(csv_path)
                out = {"metrics": metrics.to_json(),
                       "trace_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest()}
            except Exception as exc:        # an illegal variant: compare the type only
                out = {"error": type(exc).__name__}
            print(json.dumps(out), flush=True)


def run_tree(src: str, docs_path: str) -> list:
    proc = subprocess.run([sys.executable, __file__, "--worker", src, docs_path],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {src} exited with code {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        worker(sys.argv[2], sys.argv[3])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("count", type=int)
    parser.add_argument("--seed", type=int, default=0, help="seed of the variant draw")
    args = parser.parse_args()

    fixtures = [json.loads(p.read_text()) for p in
                sorted(pathlib.Path(args.new_src, "nanopipe", "fixtures").glob("*.json"))]
    if not fixtures:
        parser.error(f"no fixtures under {args.new_src}/nanopipe/fixtures")
    rng = random.Random(args.seed)
    docs = [variant(rng.choice(fixtures), rng) for _ in range(args.count)]
    with tempfile.TemporaryDirectory() as tmp:
        docs_path = str(pathlib.Path(tmp) / "variants.json")
        pathlib.Path(docs_path).write_text(json.dumps(docs))
        old, new = run_tree(args.old_src, docs_path), run_tree(args.new_src, docs_path)

    differ = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    legal = sum("error" not in a for a in old)
    print(f"{len(docs)} variants: {legal} legal, {len(docs) - legal} illegal, "
          f"{len(differ)} differ")
    for i in differ[:10]:
        keys = sorted(k for k in old[i].keys() | new[i].keys() if old[i].get(k) != new[i].get(k))
        print(f"variant {i} ({docs[i]['name']}): {', '.join(keys)} differ "
              f"(errors: {old[i].get('error')} / {new[i].get('error')})")
    return 1 if differ or len(old) != len(new) else 0


if __name__ == "__main__":
    sys.exit(main())
