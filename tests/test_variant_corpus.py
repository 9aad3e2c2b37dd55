"""A digest corpus: seeded random variants of the fixtures, pinned in tier-1.

``tests/golden/variants.json`` holds, for each of the 500 variants that
``variants.variant`` (``scripts/variants.py``) draws at seed 0, the SHA-256 of
its ``metrics.json`` and of its ``trace.csv``, or, for an illegal variant, the
type of the exception it raised. The test runs every variant again and
compares. The 34 golden cases pin the shipped fixtures; this pins the tie
orders, latencies of 0 and other corners that only the variants reach, so a
change that claims to move no number shows it here. An illegal variant must
raise ``ConfigError`` or ``MetricsError``; any other exception is a bug.

``python tests/test_variant_corpus.py`` regenerates the corpus. Regenerate it
only for a change shown to correct a number, and say how many variants moved
and why.
"""

import json
import pathlib
import random
import sys
import tempfile

import nanopipe.scenarios as scenarios

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from variants import outcome, variant  # noqa: E402

CORPUS = pathlib.Path(__file__).parent / "golden" / "variants.json"
SEED, COUNT = 0, 500
ILLEGAL = {"ConfigError", "MetricsError"}    # what an illegal variant may raise


def corpus_docs():
    """The corpus's variant documents, legal and illegal, in order."""
    fixtures = [json.loads(p.read_text()) for p in
                sorted((pathlib.Path(scenarios.__file__).parent / "fixtures").glob("*.json"))]
    rng = random.Random(SEED)
    return [variant(rng.choice(fixtures), rng) for _ in range(COUNT)]


def digests(csv_path):
    return [{"name": doc["name"], **outcome(doc, csv_path)} for doc in corpus_docs()]


def test_variants_match_the_corpus(tmp_path):
    got = digests(tmp_path / "trace.csv")
    assert {d["error"] for d in got if "error" in d} <= ILLEGAL
    expected = json.loads(CORPUS.read_text())
    assert len(got) == len(expected) == COUNT
    differ = [(i, d["name"]) for i, (d, e) in enumerate(zip(got, expected)) if d != e]
    assert differ == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = digests(pathlib.Path(tmp) / "trace.csv")
    unexpected = {d["error"] for d in out if "error" in d} - ILLEGAL
    if unexpected:
        raise SystemExit(f"variants raised {sorted(unexpected)}: fix the bug, not the corpus")
    CORPUS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    legal = sum("error" not in d for d in out)
    print(f"wrote {len(out)} variants ({legal} legal) to {CORPUS}")
