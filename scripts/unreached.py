#!/usr/bin/env python3
"""Statements of the ``nanopipe`` package that no CLI command reaches.

    python3 scripts/unreached.py SRC [COUNT]

Imports the package from ``SRC/nanopipe`` under ``sys.settrace`` and runs,
in this process, every CLI command through ``nanopipe.cli.main``:
``list-scenarios``; ``bench --kind`` for each kind, with each batch cut to 2
operations; ``run --check`` on every (fixture, mode, router mode) case, the
fixture given by name; and ``run --seed --check`` on COUNT variants (default
300) that ``variants.variant`` draws at seed 1. It then parses each
module with ``ast`` and prints the statements that never ran: a function
whose body never ran as one item, and other statements as runs of
neighbours. Docstrings and other bare constants do not count as statements.

What only tests or ``perfbench/`` reach is listed too: a cut must still keep
what perfbench calls. Unlike a ``grep -w`` for callers, this sees branches
and dunder methods that nothing takes.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import pathlib
import random
import sys
import tempfile
from collections import defaultdict

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from variants import variant  # noqa: E402

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _counted(stmt) -> bool:
    # a bare constant (a docstring) and a scope declaration compile to nothing
    return not (isinstance(stmt, (ast.Global, ast.Nonlocal))
                or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))


def _statements(node):
    return [n for n in ast.walk(node) if isinstance(n, ast.stmt) and _counted(n)]


def _reached(tree, lines: set) -> set:
    """The statements that own an executed line: a line belongs to the
    innermost statement that spans it, decorators included."""
    owner = {}
    for node in ast.walk(tree):     # breadth first, so an inner statement comes later
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            for line in range(first, node.end_lineno + 1):
                owner[line] = node
    return {owner[line] for line in lines if line in owner}


def _unreached(body: list, reached: set, out: list) -> None:
    """Append (first, last, never-runs) items for ``body``, one per function
    whose body never ran and one per run of other unreached neighbours."""
    run = []

    def flush():
        if run:
            out.append((run[0], run[-1], False))
            run.clear()
    for stmt in body:
        if not _counted(stmt):
            continue
        if isinstance(stmt, _DEFS) and not reached.intersection(_statements(stmt)[1:]):
            flush()
            out.append((stmt, stmt, True))
        elif stmt in reached:
            flush()
            for block in ("body", "orelse", "finalbody"):
                _unreached(getattr(stmt, block, []), reached, out)
            for handler in getattr(stmt, "handlers", ()):
                _unreached(handler.body, reached, out)
        else:
            run.append(stmt)
    flush()


def _run_every_command(cli, bench, fixture_dir: pathlib.Path, count: int) -> None:
    batched = bench._batched
    bench._batched = lambda op, batch, batches: batched(op, 2, 1)
    docs = [json.loads(p.read_text()) for p in sorted(fixture_dir.glob("*.json"))]
    rng = random.Random(1)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        out, path = str(pathlib.Path(tmp) / "out"), pathlib.Path(tmp) / "variant.json"
        cli.main(["list-scenarios"])
        for kind in bench.BENCH_KINDS:
            cli.main(["bench", "--kind", kind])
        for doc in docs:
            for mode in cli.MODES:
                for router in cli.ROUTER_MODES:
                    cli.main(["run", "--scenario", doc["name"], "--mode", mode,
                              "--router", router, "--check", "--out", out])
        for _ in range(count):
            doc = variant(rng.choice(docs), rng)
            path.write_text(json.dumps(doc))
            cli.main(["run", "--scenario", str(path), "--seed", str(doc["seed"]),
                      "--check", "--out", out])


def main() -> int:
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__.split("\n\n")[1])
    src = pathlib.Path(sys.argv[1]).resolve()
    count = int(sys.argv[2]) if len(sys.argv) == 3 else 300
    package = src / "nanopipe"
    hits = defaultdict(set)

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(f"{package}/"):
            return trace_lines
        return None

    sys.path.insert(0, str(src))
    sys.settrace(trace_calls)
    try:
        from nanopipe import bench, cli
        if pathlib.Path(cli.__file__).resolve().parent != package:
            raise SystemExit(f"nanopipe imported from {cli.__file__}, not from {src}")
        _run_every_command(cli, bench, package / "fixtures", count)
    finally:
        sys.settrace(None)

    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        reached = _reached(tree, hits[str(path)])
        total = _statements(tree)
        items = []
        _unreached(tree.body, reached, items)
        print(f"{path.name}: {len(set(total) - reached)} of {len(total)} statements unreached")
        lines = text.splitlines()
        for first, last, never in items:
            span = f"{first.lineno}-{last.end_lineno}" if last.end_lineno > first.lineno \
                else f"{first.lineno}"
            note = "  (never runs)" if never else ""
            print(f"  {span:>9}  {lines[first.lineno - 1].strip()}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
