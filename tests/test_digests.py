"""Whole-pipeline digests: about 100 seeded markets solved through
``gbb solve``, each document pinned by its SHA-256.

``tests/data/digests.json`` lists each market's recipe and digest.  A
``generated`` market is ``generate_instance(buyers, vendors, items, seed,
max_value)``; a ``copied`` market keeps that market's vendors and gives
each buyer the valuations of one of its first three buyers, in turn.  A
change that moves a digest on purpose rewrites the file with
``PYTHONPATH=src python -m tests.test_digests`` and names each moved digest
and its reason in CHANGES.md.
"""

import hashlib
import json
import pathlib
import tempfile
import time

from gbb.cli import main
from gbb.documents import instance_to_dict, to_canonical_json
from gbb.generate import generate_instance
from gbb.model import Buyer, Market
from tests.conftest import data_path

DIGESTS = data_path("digests.json")

# Large enough for every market below; the default cap refuses N=30 at
# M=2, c=2.
_MAX_PARTITIONS = str(10**12)


def _recipes():
    generated = []
    # swm-enum shapes, then every small-batch shape (N 1-4, M 1-2, c 1-2).
    for n, m, c in ((6, 2, 2), (7, 2, 2), (4, 3, 2)):
        generated += [(n, m, c, seed, 20) for seed in (1, 2, 3, 4)]
    for n in (1, 2, 3, 4):
        for m in (1, 2):
            for c in (1, 2):
                generated += [(n, m, c, seed, 20) for seed in (1, 2)]
    # Deep searches: M=2, c=2 at N=15-30, M=3, c=2 at N=12, M=3, c=1 at N=100.
    for n in (15, 18, 20, 22, 25, 30):
        generated += [(n, 2, 2, seed, 20) for seed in (1, 2, 3)]
    generated += [(12, 3, 2, seed, 20) for seed in (1, 2, 3, 4)]
    generated += [(100, 3, 1, seed, 20) for seed in (1, 2, 3)]
    # Tie-heavy: values and prices of 1 or 2 make most partitions tie.
    for n, m, c in ((6, 2, 2), (8, 2, 2), (5, 3, 1), (10, 2, 1)):
        generated += [(n, m, c, seed, mv) for seed in (1, 2) for mv in (1, 2)]
    copied = [
        (n, m, c, seed, mv)
        for n, m, c, seed in (
            (8, 2, 2, 1),
            (10, 2, 2, 2),
            (12, 2, 2, 3),
            (9, 3, 1, 1),
            (20, 2, 1, 2),
            (6, 3, 2, 3),
            (30, 1, 2, 1),
            (40, 2, 1, 1),
        )
        for mv in (3, 20)
    ]
    return [("generated", *r) for r in generated] + [("copied", *r) for r in copied]


def corpus_market(kind, buyers, vendors, items, seed, max_value):
    market = generate_instance(buyers, vendors, items, seed, max_value)
    if kind == "generated":
        return market
    assert kind == "copied"
    records = [b.valuations for b in market.buyers[:3]]
    copies = [
        Buyer(b.id, dict(records[i % len(records)]))
        for i, b in enumerate(market.buyers)
    ]
    return Market.build(c=market.c, vendors=list(market.vendors), buyers=copies)


def solve_digest(market, directory):
    """SHA-256 of the document ``gbb solve`` writes for ``market``."""
    instance, out = directory / "instance.json", directory / "solve.json"
    instance.write_text(to_canonical_json(instance_to_dict(market)), encoding="utf-8")
    argv = ["solve", str(instance), "--out", str(out)]
    assert main(argv + ["--max-partitions", _MAX_PARTITIONS]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


_FIELDS = ("kind", "buyers", "vendors", "items", "seed", "max_value")


def test_every_recorded_document_is_reproduced(tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert [tuple(entry[f] for f in _FIELDS) for entry in recorded] == _recipes()
    assert len(recorded) >= 100
    started = time.perf_counter()
    moved = [
        entry
        for entry in recorded
        if solve_digest(corpus_market(*(entry[f] for f in _FIELDS)), tmp_path)
        != entry["sha256"]
    ]
    assert moved == []
    assert time.perf_counter() - started <= 5.0


def _write(path=DIGESTS):
    with tempfile.TemporaryDirectory() as directory:
        entries = [
            dict(
                zip(_FIELDS, recipe),
                sha256=solve_digest(corpus_market(*recipe), pathlib.Path(directory)),
            )
            for recipe in _recipes()
        ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")


if __name__ == "__main__":
    _write()
