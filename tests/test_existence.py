"""The paper's existence result over every optimum: each welfare-maximal
allocation, ties included, is stabilized by rational, fair prices.

Only that direction is tested.  The converse does not hold: an allocation
below the optimum can certify too.
"""

import itertools

from gbb.generate import generate_instance
from gbb.model import Allocation, group_partition
from gbb.swm import total_price
from gbb.transfers import (
    Unstabilizable,
    fair_buyer_transfers,
    prices_from_transfers,
    solve_group_transfers,
)
from gbb.verify import certify

ALLOCATION_LIMIT = 20_000


def welfare_maximal_allocations(market):
    """Every allocation of ``market`` of the highest welfare, found by
    enumerating all ``cells ** buyers`` of them; each multiset of choices is
    priced once, by ``total_price``."""
    cells = market.vendor_tuples
    rows = [[b.valuation(cell) for cell in cells] for b in market.buyers]
    price = {}
    best, optima = None, []
    for assign in itertools.product(range(len(cells)), repeat=len(rows)):
        key = tuple(sorted(assign))
        if key not in price:
            counts = tuple(key.count(j) for j in range(len(cells)))
            price[key] = total_price(market, counts)
        welfare = sum(row[j] for row, j in zip(rows, assign)) - price[key]
        if best is None or welfare > best:
            best, optima = welfare, [assign]
        elif welfare == best:
            optima.append(assign)
    return [
        Allocation(dict(zip(market.buyer_ids, (cells[j] for j in assign))))
        for assign in optima
    ]


def certification_failure(market, alloc):
    """None when the post stage prices ``alloc`` and every certificate check
    passes; otherwise what went wrong."""
    gp = group_partition(market, alloc)
    try:
        gt = solve_group_transfers(market, alloc, gp)
    except Unstabilizable as exc:
        return f"Unstabilizable: {exc}"
    matrix = fair_buyer_transfers(market, alloc, gp, gt)
    prices = prices_from_transfers(market, alloc, matrix)
    report = certify(market, alloc, prices, gt, matrix, gp=gp)
    if not report.all_passed:
        return sorted(name for name, r in report.checks.items() if not r.passed)
    return None


def test_every_welfare_maximal_allocation_of_small_generated_markets_certifies():
    markets = optima = 0
    failures = []
    shapes = itertools.product(range(1, 5), range(1, 4), range(1, 3))
    for (n, m, c), seed, max_value in itertools.product(shapes, range(1, 41), (3, 20)):
        if ((m + 1) ** c) ** n > ALLOCATION_LIMIT:
            continue
        market = generate_instance(n, m, c, seed, max_value)
        markets += 1
        for alloc in welfare_maximal_allocations(market):
            optima += 1
            failure = certification_failure(market, alloc)
            if failure is not None:
                failures.append(((n, m, c, seed, max_value), alloc.choice, failure))
    assert failures == []
    assert (markets, optima) == (1840, 2574)
