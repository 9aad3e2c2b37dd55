"""nanopipe benchmark: host cost per simulated frame on two closed loops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer ones. Every run also checks the simulated outputs (see
``workloads.py``). The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Metric definitions
are in ``README.md`` beside this file.

Each measurement runs in its own child process, one at a time: peak memory is
per process, and set-up time needs a fresh interpreter. The timed runs are
split over a few processes in turn, so that no one process's memory layout or
string hashes decide the result.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ROOT, WORKLOADS  # noqa: E402

SETUP_PROBES = 15
E2E_PROCESSES = 3
TIME_LIMIT_S = 170


def probe(role: str, args, deadline: float, seconds=None) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), role, args.workload, str(args.seed),
         str(args.seconds if seconds is None else seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{role} probe exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(args, deadline: float, pin: dict) -> tuple:
    # the set-up probes go between the timed processes, so that a slow spell
    # on the machine reaches both kinds of measurement alike
    setup, parts = [], []
    for _ in range(E2E_PROCESSES):
        setup += [probe("setup", args, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES // E2E_PROCESSES)]
        parts.append(probe("e2e", args, deadline, args.seconds / E2E_PROCESSES))
    res = {key: sum(part[key] for part in parts) for key in ("runs", "failed")}
    if any(part["metrics_json"] != parts[0]["metrics_json"] for part in parts):
        print(f"check failed: seed {args.seed}: metrics.json differs between processes",
              file=sys.stderr)
        res["failed"] += 1
    run_ref = [r for part in parts for r in part["run_ref"]]
    export_ref = [r for part in parts for r in part["export_ref"]]
    return res, {
        "run_ref_per_kframe": statistics.median(run_ref),
        "export_ref_per_kframe": statistics.median(export_ref),
        "peak_rss_mb": pin["peak_rss_kb"] / 1024,
        "trace_events_per_frame": parts[0]["events"] / parts[0]["frames"],
        "setup_s": statistics.median(setup),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    # a fresh process with a single run: the pinned-output checks, and a peak
    # memory that belongs to that one run
    pin = probe("pinned", args, deadline)
    if args.trace:
        res = probe("layers", args, deadline)
        metrics = res["metrics"]
    else:
        res, metrics = end_to_end(args, deadline, pin)
    failed = pin["failed"] + res["failed"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": pin["runs"] + res["runs"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
