"""One measurement in a fresh interpreter; ``run.py`` starts it and reads the
JSON object on its last line of output.

    python3 perfbench/probe.py {setup|pinned|e2e|layers} WORKLOAD SEED SECONDS

setup   import nanopipe and load the workload's scenario, timed
pinned  one run plus export at the fixture's seed: the pinned-output checks
        and the process's peak memory
e2e     one warm-up run, then untraced runs plus export at SEED, each
        followed by a pass of the reference loop, for SECONDS in all
layers  one counted run, untraced runs with the collector metered, profiled
        runs, then the layer microbenchmarks

Everything past ``sys`` and ``time`` is imported inside the roles, so the
setup role times every import the package needs.
"""
import sys
import time

MIN_REPEATS = 3


def setup(workload, seed):
    t0 = time.perf_counter()
    import workloads
    workloads.import_nanopipe()
    workloads.load(workload, seed)
    return {"setup_s": time.perf_counter() - t0}


class Checks:
    """Simulation runs made and the runs whose outputs failed a check."""

    def __init__(self):
        self.runs = 0
        self.failed = 0

    def add(self, failures):
        self.runs += 1
        if failures:
            self.failed += 1
            for line in failures:
                print(f"check failed: {line}", file=sys.stderr)

    def fields(self):
        return {"runs": self.runs, "failed": self.failed}


def _export(trace, metrics, out):
    """Write what `nanopipe run --out` writes."""
    trace.write_csv(out / "trace.csv")
    (out / "metrics.json").write_text(metrics.to_json())


def _read_back(out):
    """(metrics.json text, trace.csv line count) of an export."""
    return (out / "metrics.json").read_text(), (out / "trace.csv").read_bytes().count(b"\n")


def _check_csv(lines, trace):
    if lines != len(trace.events) + 1:
        return [f"trace.csv has {lines} lines for {len(trace.events)} records"]
    return []


def _out_dir(role):
    import os
    from workloads import OUT_DIR
    out = OUT_DIR / f"{role}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def pinned(workload):
    import resource
    import shutil
    from workloads import check_pinned, load
    from nanopipe import run_scenario

    spec = load(workload)
    out = _out_dir("pinned")
    try:
        trace, metrics = run_scenario(spec)
        _export(trace, metrics, out)
        failures = check_pinned(workload, spec, metrics) + _check_csv(_read_back(out)[1], trace)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    checks = Checks()
    checks.add(failures)
    return {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            **checks.fields()}


def e2e(workload, seed, seconds):
    import gc
    import shutil
    import reference
    from workloads import load
    from nanopipe import run_scenario

    checks = Checks()
    spec = load(workload, seed)
    out = _out_dir("e2e")
    wall, export, ref = [], [], []    # seconds
    first = None
    try:
        end = time.perf_counter() + seconds
        # the first run fills the interpreter's caches and the heap; it is
        # checked but not timed
        warm_up = True
        while warm_up or len(wall) < MIN_REPEATS or time.perf_counter() < end:
            gc.collect()     # every run starts from the same heap
            t0 = time.perf_counter()
            trace, metrics = run_scenario(spec)
            t1 = time.perf_counter()
            _export(trace, metrics, out)
            t2 = time.perf_counter()
            written = _read_back(out)
            if not warm_up:
                wall.append(t1 - t0)
                export.append(t2 - t1)
            warm_up = False

            failures = _check_csv(written[1], trace)
            if first is None:
                first = written
            elif written != first:
                failures.append(f"seed {spec.seed}: metrics.json or trace.csv differs between runs")
            checks.add(failures)
            del trace, metrics
            gc.collect()
            ref.append(reference.timed_pass())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    # timed run i lies between reference passes i and i + 1
    yardstick = [(before + after) / 2 for before, after in zip(ref, ref[1:])]
    kframes = spec.frames / 1000
    return {"run_ref": [t / kframes / y for t, y in zip(wall, yardstick)],
            "export_ref": [t / kframes / y for t, y in zip(export, yardstick)],
            "metrics_json": first[0], "events": first[1] - 1, "frames": spec.frames,
            **checks.fields()}


def layers(workload, seed, seconds):
    import collections
    import gc
    import statistics
    import layers as lay
    import micro
    from workloads import load, oracle_residual_pct
    from nanopipe import Kind, run_scenario

    checks = Checks()
    start = time.perf_counter()
    spec = load(workload, seed)
    frames = spec.frames

    trace, metrics, tally = lay.counted_run(spec)
    expected = metrics.to_json()
    kinds = collections.Counter(e.kind for e in trace.events)
    events = len(trace.events)
    metrics_s, same = lay.metrics_seconds(spec, trace, metrics)
    checks.add([] if same else ["compute_metrics on the returned trace disagrees with the run"])
    residual = oracle_residual_pct(spec, metrics)
    del trace

    def check(m):
        checks.add([] if m.to_json() == expected
                   else [f"seed {spec.seed}: metrics.json differs between runs"])

    wall, gc_s, gen2 = [], [], []
    while len(wall) < MIN_REPEATS or time.perf_counter() < start + seconds / 2:
        gc.collect()
        with lay.GcMeter() as meter:
            t0 = time.perf_counter()
            _, m = run_scenario(spec)
            wall.append(time.perf_counter() - t0)
        gc_s.append(meter.seconds)
        gen2.append(meter.gen2)
        check(m)

    traced_wall, self_s, counts = [], [], None
    while len(traced_wall) < 2 or time.perf_counter() < start + seconds:
        gc.collect()
        w, s, c, m = lay.profiled_run(spec)
        traced_wall.append(w)
        self_s.append(s)
        check(m)
        if counts is None:
            counts = c
        elif c != counts:
            checks.add([f"profiled call counts differ between runs: {c} vs {counts}"])

    out = {f"{layer}.self_us_per_frame":
           statistics.median(s.get(layer, 0.0) for s in self_s) * 1e6 / frames
           for layer in lay.LAYERS}
    out.update({f"{name}_per_frame": n / frames for name, n in counts.items()})
    out.update({
        "pipeline.pool_acquire_fail_ratio": tally["acquire_failed"] / max(tally["acquire"], 1),
        "vnode.link_bytes_per_frame": tally["link_bytes"] / frames,
        "cpx.credit_fail_ratio": tally["reserve_failed"] / max(tally["reserve"], 1),
        "trace.runtime_events_frac": sum(kinds[k] for k in lay.RUNTIME_KINDS) / events,
        "scenarios.metrics_us_per_frame": metrics_s * 1e6 / frames,
        "gc.us_per_frame": statistics.median(gc_s) * 1e6 / frames,
        "gc.gen2_per_kframe": statistics.median(gen2) * 1000 / frames,
        "host.wall_us_per_frame": statistics.median(wall) * 1e6 / frames,
        "tracing_overhead_pct":
            (statistics.median(traced_wall) / statistics.median(wall) - 1) * 100,
    })
    out.update({f"trace.records.{kind}_per_frame": kinds[kind] / frames for kind in Kind.ALL})
    if residual is not None:
        out["oracle_residual_pct"] = residual
    out.update(micro.measure_all())
    return {"metrics": out, **checks.fields()}


def main(argv):
    import json
    role, workload, seed, seconds = argv[1], argv[2], int(argv[3]), float(argv[4])
    if role == "setup":
        result = setup(workload, seed)
    else:
        import workloads
        workloads.import_nanopipe()
        if role == "e2e":
            result = e2e(workload, seed, seconds)
        elif role == "pinned":
            result = pinned(workload)
        elif role == "layers":
            result = layers(workload, seed, seconds)
        else:
            raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
