"""Seeded inputs and reference answers for the benchmark's workloads.

This module runs in the orchestrating process, before the worker starts and
outside every timed region.  ``prepare`` writes a workload's instance
documents into a run directory and returns the plan the worker follows: the
markets in op order, each with the welfare references its output must match.
The same (workload, seed, size) always gives the same documents.
"""

from __future__ import annotations

import itertools
import os
import random

import numpy as np
from scipy.optimize import linear_sum_assignment

from gbb.documents import instance_to_dict, to_canonical_json
from gbb.generate import generate_instance
from gbb.model import (
    Buyer,
    DiscountTier,
    Market,
    Vendor,
    market_price_of_choice,
    triggered_tiers,
)
from gbb.swm import brute_force_swm

# swm-enum: enumeration-bound shapes (buyers, vendors, item types) with
# 3 003, 6 435 and 3 876 partitions, and distinct seeded markets per shape.
# One round solves every market once, interleaving the shapes.  Several
# mid-sized markets rather than one of each of N=8 (M=2) and N=5 (M=3) keep
# a run's median and tail from resting on one or two ops.
SWM_SHAPES = {
    "full": ((6, 2, 2), (7, 2, 2), (4, 3, 2)),
    "smoke": ((3, 2, 2), (2, 3, 2)),
}
SWM_MARKETS_PER_SHAPE = {"full": 4, "smoke": 1}
# small-batch: one round is this many markets.  Every (N, M, c) combination
# in the acceptance corpus's ranges (N 1-4, M 1-2, c 1-2) occurs equally
# often, so the median market sits inside a dense stretch of the cost
# distribution instead of on the gap between two shapes.
BATCH_MARKETS = {"full": 200, "smoke": 16}
# post-large: buyers in the one fixed-allocation market that every op prices
# and certifies.
LARGE_BUYERS = {"full": 2000, "smoke": 100}


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _write_instance(run_dir: str, key: str, market: Market) -> str:
    path = os.path.join(run_dir, f"{key}.instance.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_canonical_json(instance_to_dict(market)))
    return path


def compositions(n: int, cells: int):
    """Every way to split n buyers into ``cells`` ordered nonnegative counts."""
    for bars in itertools.combinations(range(n + cells - 1), cells - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(n + cells - 2 - prev)
        yield counts


def partition_price(market: Market, cells, counts) -> int:
    """Total payments of a partition, priced through ``gbb.model`` only."""
    demand = {v.id: [0] * market.c for v in market.vendors}
    for cell, n in zip(cells, counts):
        for k, vid in enumerate(cell):
            demand[vid][k] += n
    trig = triggered_tiers(market, {vid: tuple(d) for vid, d in demand.items()})
    return sum(
        n * market_price_of_choice(market, cell, trig)
        for cell, n in zip(cells, counts)
        if n
    )


def assignment_welfare(market: Market) -> int:
    """Optimal welfare: best per-partition assignment minus the price.

    Independent of the solver under test: each partition's best assignment
    comes from ``scipy.optimize.linear_sum_assignment`` on the buyer-by-slot
    value matrix, not from ``gbb.flow``.
    """
    cells = market.vendor_tuples
    values = np.array(
        [[b.valuation(cell) for cell in cells] for b in market.buyers],
        dtype=np.int64,
    )
    best = None
    for counts in compositions(len(market.buyers), len(cells)):
        slots = values[:, np.repeat(np.arange(len(cells)), counts)]
        rows, cols = linear_sum_assignment(slots, maximize=True)
        welfare = int(slots[rows, cols].sum()) - partition_price(market, cells, counts)
        if best is None or welfare > best:
            best = welfare
    return best


def _swm_enum(seed: int, size: str, run_dir: str) -> list[dict]:
    shapes = SWM_SHAPES[size]
    seeds = iter(_seeds("swm-enum", seed, len(shapes) * SWM_MARKETS_PER_SHAPE[size]))
    markets = []
    for copy in range(SWM_MARKETS_PER_SHAPE[size]):
        for n, m, c in shapes:
            market = generate_instance(buyers=n, vendors=m, items=c, seed=next(seeds))
            key = f"n{n}-m{m}-c{c}-{copy}"
            markets.append(
                {
                    "key": key,
                    "shape": [n, m, c],
                    "instance": _write_instance(run_dir, key, market),
                    "references": {"assignment": assignment_welfare(market)},
                }
            )
    return markets


def _small_batch(seed: int, size: str, run_dir: str) -> list[dict]:
    count = BATCH_MARKETS[size]
    markets = []
    for i, s in enumerate(_seeds("small-batch", seed, count)):
        n, m, c = i % 4 + 1, (i // 4) % 2 + 1, (i // 8) % 2 + 1
        market = generate_instance(buyers=n, vendors=m, items=c, seed=s)
        key = f"b{i:03d}"
        markets.append(
            {
                "key": key,
                "shape": [n, m, c],
                "instance": _write_instance(run_dir, key, market),
                # brute_force_swm prices through gbb.swm.total_price, the
                # function under test, so the assignment oracle checks too.
                "references": {
                    "brute_force_swm": brute_force_swm(market)[1],
                    "assignment": assignment_welfare(market),
                },
            }
        )
    return markets


def large_market(buyers: int, seed: int) -> tuple[Market, dict, int]:
    """The acceptance suite's large-market shape, scaled and seeded.

    Three classes on a fixed allocation: 60% positive-surplus buyers of the
    discounted s1 bundle (surplus 5..8), 20% same-vendor buyers of that
    bundle and 20% mixed s1/s2 buyers, both needing a subsidy (surplus
    -8..-1 and -7..-1).  The drawn ranges keep every class's surplus sign,
    and the payers' smallest total surplus covers the largest possible
    subsidy, so the allocation always certifies.  Returns the market, the
    allocation and its welfare, computed here from the drawn values.
    """
    rng = random.Random(f"post-large/{seed}")
    n_a = buyers * 3 // 5
    n_b = buyers // 5
    n_c = buyers - n_a - n_b
    threshold = buyers * 7 // 10
    vendors = [
        Vendor("s1", (10, 10), (DiscountTier((threshold, threshold), 12),)),
        Vendor("s2", (3, 3)),
        Vendor("s3", (4, 4)),
    ]
    people, choice, welfare = [], {}, 0
    for i in range(n_a):
        v = rng.randint(17, 30)
        people.append(Buyer(f"a{i:05d}", {("s1", "s1"): v}))
        choice[f"a{i:05d}"] = ("s1", "s1")
        welfare += v - 12
    for i in range(n_b):
        x = rng.randint(12, 17)
        y = rng.randint(max(7, x - 5), x + 2)
        people.append(Buyer(f"b{i:05d}", {("s1", "s1"): x, ("s2", "s2"): y}))
        choice[f"b{i:05d}"] = ("s1", "s1")
        welfare += x - 12
    for i in range(n_c):
        x = rng.randint(8, 14)
        y = rng.randint(max(7, x - 6), x)
        people.append(Buyer(f"c{i:05d}", {("s1", "s2"): x, ("s2", "s2"): y}))
        choice[f"c{i:05d}"] = ("s1", "s2")
        welfare += x - 13
    return Market.build(c=2, vendors=vendors, buyers=people), choice, welfare


def _post_large(seed: int, size: str, run_dir: str) -> list[dict]:
    buyers = LARGE_BUYERS[size]
    market, choice, welfare = large_market(buyers, seed)
    key = f"large-{buyers}"
    return [
        {
            "key": key,
            "shape": [buyers, 3, 2],
            "instance": _write_instance(run_dir, key, market),
            "allocation": {bid: list(t) for bid, t in choice.items()},
            "references": {"drawn values": welfare},
        }
    ]


def prepare(workload: str, seed: int, size: str, run_dir: str) -> dict:
    """Write the workload's documents under ``run_dir``; return its plan."""
    build = {
        "swm-enum": _swm_enum,
        "post-large": _post_large,
        "small-batch": _small_batch,
    }[workload]
    shape = SWM_SHAPES[size][0]
    probe = generate_instance(
        buyers=shape[0],
        vendors=shape[1],
        items=shape[2],
        seed=_seeds("swm-enum", seed, 1)[0],
    )
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "markets": build(seed, size, run_dir),
        # The jobs=2 probe solves the first swm-enum market of this seed.
        "probe": {
            "shape": list(shape),
            "instance": _write_instance(run_dir, "probe", probe),
        },
    }
