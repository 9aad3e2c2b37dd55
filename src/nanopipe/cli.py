"""Command-line entry point: run scenarios, check them against the oracle,
dump traces and metrics, and run microbenchmarks."""
from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

from .bench import BENCH_KINDS, microbench
from .cpx import ROUTER_MODES
from .errors import NanopipeError, OracleUnavailable
from .pipeline import MODES
from .scenarios import (expected_period_us, fixture_dir, list_scenarios, load_scenario,
                        run_scenario)

CHECK_TOLERANCE = 0.02

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanopipe",
        description="Deterministic desk-scale simulator for pipelined perception stacks")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write trace + metrics")
    run.add_argument("--scenario", required=True,
                     help="fixture name or path to a scenario JSON file")
    run.add_argument("--mode", choices=MODES, help="override the scenario's mode")
    run.add_argument("--router", choices=ROUTER_MODES,
                     help="override the scenario's router mode")
    run.add_argument("--seed", type=int, help="override the scenario's seed")
    run.add_argument("--check", action="store_true",
                     help="fail unless measured throughput matches the analytic oracle "
                          f"within {CHECK_TOLERANCE * 100:.0f}%%")   # argparse %-formats help
    run.add_argument("--out", default="out", help="output directory (default: out)")

    bench = sub.add_parser("bench", help="run a microbenchmark")
    bench.add_argument("--kind", choices=BENCH_KINDS, required=True)

    sub.add_parser("list-scenarios", help="list the available scenario fixtures")
    return parser


def _cmd_run(args) -> int:
    spec = load_scenario(args.scenario)
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.router:
        overrides["router_mode"] = args.router
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        spec = dataclasses.replace(spec, **overrides)

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)      # before the run, so a bad --out fails fast
    trace, metrics = run_scenario(spec)

    trace_path = out_dir / "trace.csv"
    metrics_path = out_dir / "metrics.json"
    trace.write_csv(trace_path)
    metrics_path.write_text(metrics.to_json())

    print(f"scenario {spec.name} [{spec.mode}/{spec.router_mode}, seed {spec.seed}]")
    print(f"  closed loop: {metrics.closed_loop_hz:.4f} Hz"
          + (f"  (drop {metrics.drop_pct:+.2f}%)" if metrics.drop_pct is not None else ""))
    if metrics.e2e_ms_mean is not None:
        print(f"  e2e latency: mean {metrics.e2e_ms_mean:.3f} ms, "
              f"p95 {metrics.e2e_ms_p95:.3f} ms")
    if metrics.rtt_ms_mean is not None:
        print(f"  round trip:  mean {metrics.rtt_ms_mean:.3f} ms")
    print(f"  wrote {trace_path} and {metrics_path}")

    if args.check:
        try:
            expected_hz = 1e6 / expected_period_us(spec)
        except OracleUnavailable as exc:
            print(f"  check skipped: oracle unavailable ({exc})", file=sys.stderr)
            return EXIT_OK
        rel = abs(metrics.closed_loop_hz - expected_hz) / expected_hz
        verdict = "ok" if rel <= CHECK_TOLERANCE else "FAILED"
        print(f"  check: measured {metrics.closed_loop_hz:.4f} Hz vs oracle "
              f"{expected_hz:.4f} Hz ({rel:.2%} off) -> {verdict}")
        if rel > CHECK_TOLERANCE:
            return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_bench(args) -> int:
    report = microbench(args.kind)
    for line in report.lines():
        print(line)
    return EXIT_OK


def _cmd_list() -> int:
    rows = list_scenarios()
    if not rows:
        print(f"no scenario fixtures found in {fixture_dir()}")
        return EXIT_OK
    for name, aliases, description in rows:
        alias_txt = f" (aliases: {', '.join(aliases)})" if aliases else ""
        print(f"{name}{alias_txt}")
        if description:
            print(f"    {description}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_list()
    except (NanopipeError, OSError) as exc:     # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
