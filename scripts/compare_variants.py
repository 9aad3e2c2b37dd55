#!/usr/bin/env python3
"""Differential check of two source trees on random variants of the fixtures.

    python3 scripts/compare_variants.py OLD_SRC NEW_SRC COUNT [--seed N]

Each ``*_SRC`` is a ``src`` directory holding a ``nanopipe`` package, such as
that of a checkout of the parent commit and that of the working tree. The
script draws COUNT seeded variants of the shipped fixtures (those of NEW_SRC)
with ``variants.variant``, and runs every variant in both trees, each tree in
its own child process. A legal variant must give the same SHA-256 of
``metrics.json`` and of ``trace.csv`` in both (``variants.outcome``); an
illegal one must raise the same exception type.
It prints a summary and exits 1 on any difference.

A change that claims to keep every simulated number runs this against its
parent, with a count in the thousands, so that tie orders the fixtures never
reach are compared too; tier-1 pins 500 variants (``tests/golden/variants.json``).
"""
from __future__ import annotations

import argparse
import json
import pathlib
import random
import subprocess
import sys
import tempfile

from variants import outcome, variant


def worker(src: str, docs_path: str) -> None:
    """Run every variant with the package in ``src``; print one JSON line each."""
    sys.path.insert(0, src)
    import nanopipe
    if not pathlib.Path(nanopipe.__file__).resolve().is_relative_to(pathlib.Path(src).resolve()):
        raise SystemExit(f"nanopipe imported from {nanopipe.__file__}, not from {src}")
    docs = json.loads(pathlib.Path(docs_path).read_text())
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = pathlib.Path(tmp) / "trace.csv"
        for doc in docs:
            print(json.dumps(outcome(doc, csv_path)), flush=True)


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
