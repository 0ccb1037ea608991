"""Social-welfare-maximizing allocations.

The solver conditions on a *partition*: the number of buyers assigned to
each vendor tuple.  For a fixed partition the welfare-maximal assignment
is a min-cost max-flow on a small bipartite network, and the outer loop
enumerates every feasible partition, solving that flow only where a cheap
upper bound says the partition could match or beat the best found so far.
A brute-force enumerator over whole allocations serves as the independent
oracle at desk scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .flow import Edge, FlowNetwork, NetworkBuilder, min_cost_max_flow
from .model import (
    Allocation,
    Market,
    Money,
    VendorTuple,
    cell_demand,
    market_price_of_choice,
    triggered_tiers,
)

DEFAULT_PARTITION_CAP = 5_000_000
DEFAULT_ALLOCATION_CAP = 1_000_000


class BudgetExceeded(Exception):
    """The enumeration size exceeds the configured cap."""

    def __init__(self, needed: int, cap: int, what: str = "partitions") -> None:
        super().__init__(f"{needed} {what} exceed the configured cap of {cap}")
        self.needed = needed
        self.cap = cap


@dataclass(frozen=True, eq=False)
class Partition:
    """Buyer counts per vendor tuple; counts sum to the number of buyers."""

    counts: Mapping[VendorTuple, int]

    def count(self, choice: VendorTuple) -> int:
        return self.counts.get(choice, 0)


def partition_count(n_buyers: int, cells: int) -> int:
    """Number of ways to split ``n_buyers`` into ``cells`` ordered counts."""
    return math.comb(n_buyers + cells - 1, cells - 1)


def enumerate_partitions(n_buyers: int, cells: int) -> Iterator[tuple[int, ...]]:
    """All compositions of ``n_buyers`` into ``cells`` nonnegative parts.

    Yields each composition exactly once, first cell counting down from
    ``n_buyers`` (so ``(2, 0)`` precedes ``(1, 1)`` precedes ``(0, 2)``).
    """
    if n_buyers < 0 or cells < 1:
        raise ValueError("need n_buyers >= 0 and cells >= 1")
    counts = [n_buyers] + [0] * (cells - 1)
    while True:
        yield tuple(counts)
        # Move one unit from the rightmost nonempty non-final cell into the
        # cell after it, sweeping everything further right back onto it.
        j = -1
        for k in range(cells - 2, -1, -1):
            if counts[k] > 0:
                j = k
                break
        if j < 0:
            return
        carried = counts[cells - 1] + 1
        counts[j] -= 1
        counts[cells - 1] = 0
        counts[j + 1] = carried


def _partition_of(market: Market, counts: tuple[int, ...]) -> Partition:
    return Partition(counts=dict(zip(market.vendor_tuples, counts)))


class _AssignmentLayout:
    """Bipartite network routing each buyer to a vendor-tuple slot.

    Source->buyer edges have unit capacity; buyer->tuple edges, tagged
    ``(buyer id, choice)``, carry cost equal to the negated valuation.
    Both are built once per market; a partition only appends its
    tuple->sink edges, whose capacities are the per-tuple counts.
    The same valuations back ``upper_bound``.
    """

    def __init__(self, market: Market) -> None:
        self.market = market
        values = [
            [buyer.valuation(choice) for choice in market.vendor_tuples]
            for buyer in market.buyers
        ]
        builder = NetworkBuilder()
        self.source = builder.add_node()
        buyer_nodes = [builder.add_node() for _ in market.buyers]
        self.tuple_nodes = [builder.add_node() for _ in market.vendor_tuples]
        self.sink = builder.add_node()
        for node in buyer_nodes:
            builder.add_edge(self.source, node, 1, 0)
        for buyer, node, row in zip(market.buyers, buyer_nodes, values):
            for choice, slot, value in zip(
                market.vendor_tuples, self.tuple_nodes, row
            ):
                builder.add_edge(node, slot, 1, -value, tag=(buyer.id, choice))
        self.fixed = builder.build(self.source, self.sink)
        # Per buyer, (cell, value) pairs from best to worst cell; per cell j,
        # top[j][k] is the sum of the k largest values in column j.
        self.ranked = [sorted(enumerate(row), key=lambda jv: -jv[1]) for row in values]
        self.top = [
            list(
                itertools.accumulate(
                    sorted((row[j] for row in values), reverse=True), initial=0
                )
            )
            for j in range(len(self.tuple_nodes))
        ]

    def upper_bound(self, counts: tuple[int, ...], floor: Money) -> Money:
        """A bound on the total valuation of any assignment matching counts.

        It is the smaller of two relaxations: every cell's ``n_j`` slots hold
        at most its ``n_j`` highest values (O(cells)), and every buyer gets at
        most its best cell with ``n_j > 0`` (O(buyers)).  The second is only
        computed when the first is not already below ``floor``.
        """
        bound = sum(sums[n] for sums, n in zip(self.top, counts))
        if bound < floor:
            return bound
        best_open = 0
        for ranked in self.ranked:
            for j, value in ranked:
                if counts[j]:
                    best_open += value
                    break
        return min(bound, best_open)

    def network(self, counts: tuple[int, ...]) -> FlowNetwork:
        sink_edges = tuple(
            Edge(slot, self.sink, n) for slot, n in zip(self.tuple_nodes, counts)
        )
        return FlowNetwork(
            node_count=self.fixed.node_count,
            source=self.source,
            sink=self.sink,
            edges=self.fixed.edges + sink_edges,
        )

    def solve(self, counts: tuple[int, ...]) -> tuple[dict, Money]:
        """Assignment and total valuation for one partition's counts."""
        flow = min_cost_max_flow(self.network(counts))
        n_buyers = len(self.market.buyers)
        if flow.value != n_buyers:
            raise RuntimeError(
                f"assignment flow routed {flow.value} of {n_buyers} buyers"
            )
        choice = {tag[0]: tag[1] for tag, f in flow.tagged() if f > 0}
        return choice, -flow.cost


def _counts_of(market: Market, partition: Partition) -> tuple[int, ...]:
    return tuple(partition.count(choice) for choice in market.vendor_tuples)


def assignment_network(market: Market, partition: Partition) -> FlowNetwork:
    """The assignment network of ``partition``; see ``_AssignmentLayout``."""
    return _AssignmentLayout(market).network(_counts_of(market, partition))


def total_price(market: Market, partition: Partition) -> Money:
    """Total buyer payments implied by the partition alone.

    Every assignment matching the counts produces the same demand vectors,
    hence the same triggered discounts and the same per-cell prices.
    """
    cells = [(choice, n) for choice, n in partition.counts.items() if n]
    trig = triggered_tiers(market, cell_demand(market, cells))
    total = 0
    for choice, n in cells:
        total += n * market_price_of_choice(market, choice, trig)
    return total


def best_allocation_for_partition(
    market: Market, partition: Partition
) -> tuple[Allocation, Money]:
    """Welfare-maximal allocation among those matching the partition."""
    choice, value = _AssignmentLayout(market).solve(_counts_of(market, partition))
    return Allocation(choice=choice), value - total_price(market, partition)


@dataclass(frozen=True, eq=False)
class SwmResult:
    allocation: Allocation
    social_welfare: Money
    partition: Partition
    partitions_total: int
    partitions_evaluated: int
    flows_solved: int


def solve_swm(
    market: Market,
    max_partitions: int = DEFAULT_PARTITION_CAP,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> SwmResult:
    """Exact welfare maximization by enumerating every feasible partition.

    Every partition is priced; only those whose welfare upper bound reaches
    the incumbent get a min-cost flow.  Equal-welfare ties resolve to the
    lexicographically smallest partition; the per-partition assignment is
    deterministic, so results are reproducible run to run.
    """
    n = len(market.buyers)
    cells = len(market.vendor_tuples)
    total = partition_count(n, cells)
    if total > max_partitions:
        raise BudgetExceeded(total, max_partitions)

    if jobs > 1 and total > 1:
        best, flows = _solve_parallel(market, total, jobs)
    else:
        best, flows = _solve_slice(market, 0, total, progress)
    welfare, counts, choice = best
    partition = _partition_of(market, counts)
    return SwmResult(
        allocation=Allocation(choice=choice),
        social_welfare=welfare,
        partition=partition,
        partitions_total=total,
        partitions_evaluated=total,
        flows_solved=flows,
    )


def _solve_slice(
    market: Market,
    lo: int,
    hi: int,
    progress: Callable[[int, int], None] | None = None,
) -> tuple:
    """Best (welfare, counts, choice) over compositions ``lo`` to ``hi - 1``
    and the number of min-cost flows solved on the way.
    """
    layout = _AssignmentLayout(market)
    compositions = enumerate_partitions(
        len(market.buyers), len(market.vendor_tuples)
    )
    best = None
    flows = 0
    for done, counts in enumerate(itertools.islice(compositions, lo, hi), 1):
        price = total_price(market, _partition_of(market, counts))
        # Beating the incumbent needs an assignment worth ``needed``; the
        # flow is skipped only when the bound is strictly below it, so an
        # equal-welfare partition still reaches the tie rule below.
        needed = None if best is None else best[0] + price
        if needed is None or layout.upper_bound(counts, needed) >= needed:
            choice, value = layout.solve(counts)
            flows += 1
            welfare = value - price
            # Enumeration order is lexicographically descending, so
            # replacing the incumbent on equal welfare leaves the
            # lexicographically smallest partition as the winner.
            if best is None or welfare >= best[0]:
                best = (welfare, counts, choice)
        if progress is not None and done % 1000 == 0:
            progress(done, hi - lo)
    return best, flows


def _solve_parallel(market: Market, total: int, jobs: int):
    from concurrent.futures import ProcessPoolExecutor

    jobs = min(jobs, total)
    bounds = [total * i // jobs for i in range(jobs + 1)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(
            pool.map(_solve_slice, [market] * jobs, bounds[:-1], bounds[1:])
        )
    best = None
    # Merge in slice order: later slices hold lexicographically smaller
    # partitions, so >= keeps the same tie rule as the sequential path.
    for candidate, _ in results:
        if best is None or candidate[0] >= best[0]:
            best = candidate
    return best, sum(flows for _, flows in results)


def brute_force_swm(
    market: Market, max_allocations: int = DEFAULT_ALLOCATION_CAP
) -> tuple[Allocation, Money]:
    """Exact optimum by enumerating every allocation outright.

    Test oracle only: the count grows as (vendor count)^(c * buyers).
    """
    cells = market.vendor_tuples
    n = len(market.buyers)
    needed = len(cells) ** n
    if needed > max_allocations:
        raise BudgetExceeded(needed, max_allocations, what="allocations")

    values = [
        [buyer.valuation(choice) for choice in cells] for buyer in market.buyers
    ]
    price_cache: dict[tuple[int, ...], Money] = {}

    def price_of(assignment: tuple[int, ...]) -> Money:
        counts = [0] * len(cells)
        for j in assignment:
            counts[j] += 1
        key = tuple(counts)
        cached = price_cache.get(key)
        if cached is None:
            cached = total_price(market, _partition_of(market, key))
            price_cache[key] = cached
        return cached

    best_assignment: tuple[int, ...] | None = None
    best_welfare = 0
    for assignment in itertools.product(range(len(cells)), repeat=n):
        welfare = sum(values[i][j] for i, j in enumerate(assignment))
        welfare -= price_of(assignment)
        if best_assignment is None or welfare > best_welfare:
            best_assignment = assignment
            best_welfare = welfare
    assert best_assignment is not None
    choice = {
        market.buyers[i].id: cells[j] for i, j in enumerate(best_assignment)
    }
    return Allocation(choice=choice), best_welfare
