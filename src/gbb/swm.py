"""Social-welfare-maximizing allocations.

The solver conditions on a *partition*: per-cell buyer counts, a tuple
aligned with ``market.vendor_tuples`` (the cells).  For fixed counts the
best assignment is a min-cost max-flow on a small bipartite network: with
N buyers and K cells, source 0, buyer i at ``1 + i``, cell j at
``1 + N + j`` and the sink at ``N + K + 1``.  Only the K cell->sink
capacities depend on the counts, so the network is compiled once per
market into a residual graph, and a leaf resets those K capacities and
routes its flow there.

A depth-first search covers every partition: the first cell's count runs
down from N, then the search recurses on the remaining cells, so leaves
come in reverse lexicographic order.  The path carries the base-price sum
and each tiered vendor's per-item demand, so a leaf's price is that sum
less, per vendor, its full-bundle count times the discount of the highest
tier the demand meets; ``total_price`` stays as the reference.  A leaf gets
its flow only when two bounds on its welfare reach the incumbent:
``_AssignmentLayout.upper_bound`` minus its price, and the LP-dual bound of
each of the last four flows.  A flow's node potentials give cell
multipliers ``λ_j``, minus cell j's potential, and by weak duality every
counts tuple n has value at most ``C(λ) + Σ_j λ_j·n_j`` with
``C(λ) = Σ_i max_j (v_ij − λ_j)`` over all cells.  An interior node with
cells ``< k`` fixed and ``r`` buyers left is skipped with its whole subtree
when the fixed cells' best values net of their lowest possible prices,
plus the ``r`` best such values over the open cells, fall strictly below
the incumbent.  Every bound skips only what is strictly below the
incumbent, so the welfare and the chosen partition are those of solving
every leaf's flow.  The incumbent holds the welfare and the counts; once
the search ends, one flow on the winner's own network gives the
assignment, so ties between equal-value assignments resolve as that flow
resolves them.  The search runs in one process, so every bound compares
against the best leaf of the whole order found so far.

``SwmResult.partitions_evaluated`` counts partitions covered, priced or
ruled out with their subtree, so it always equals ``partition_count``; it
is the result's one partition counter.  ``partitions_priced`` counts
leaves priced, and ``flows_solved`` the leaves whose value a flow gave
(the winner's flow after the search is not counted).
A brute-force enumerator over whole allocations serves as the independent
oracle at desk scale.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .flow import Edge, FlowNetwork, _Residual, min_cost_max_flow
from .model import Allocation, Market, Money, cell_prices

DEFAULT_PARTITION_CAP = 5_000_000
DEFAULT_ALLOCATION_CAP = 1_000_000


def count_text(count: int) -> str:
    """``count`` in decimal, or its bit length when ``str`` refuses it
    (Python converts ints of at most 4 300 digits by default)."""
    try:
        return str(count)
    except ValueError:
        return f"a {count.bit_length()}-bit number"


class BudgetExceeded(Exception):
    """The enumeration size exceeds the configured cap."""

    def __init__(self, needed: int, cap: int, what: str = "partitions") -> None:
        super().__init__(
            f"{count_text(needed)} {what} exceed the configured cap of {cap}"
        )
        self.needed = needed
        self.cap = cap


def partition_count(n_buyers: int, cells: int) -> int:
    """Number of ways to split ``n_buyers`` into ``cells`` ordered counts."""
    return math.comb(n_buyers + cells - 1, cells - 1)


class _AssignmentLayout:
    """Bipartite network routing each buyer to a vendor-tuple slot.

    With N buyers and K cells, the source is node 0, buyer i is node
    ``1 + i``, cell j is node ``1 + N + j`` and the sink is ``N + K + 1``.
    Source->buyer edges have unit capacity; buyer->tuple edges, tagged
    ``(buyer id, choice)``, cost ``ceiling`` less the valuation, where
    ``ceiling`` is the market's largest valuation, so no cost is negative.
    Every buyer crosses exactly one such edge, so a flow routing all N
    buyers is worth ``N * ceiling`` less its cost.  Both edge sets are
    built once per market; a partition only appends its tuple->sink edges,
    whose capacities are the per-tuple counts.

    The network with every tuple->sink capacity 0 is compiled once into a
    residual graph: ``value`` resets those K capacities to a partition's
    counts and routes the flow on it, and ``dual`` reads cell multipliers
    from the potentials that flow leaves.  ``solve`` builds the partition's
    own network and flow, for the assignment itself.  The same valuations
    back ``upper_bound`` and ``dual``.
    """

    def __init__(self, market: Market) -> None:
        self.market = market
        self.values = values = [
            [buyer.valuation(choice) for choice in market.vendor_tuples]
            for buyer in market.buyers
        ]
        self.ceiling = max((v for row in values for v in row), default=0)
        n, k = len(market.buyers), len(market.vendor_tuples)
        self.tuple_nodes = range(1 + n, 1 + n + k)
        self.sink = 1 + n + k
        edges = [Edge(0, 1 + i, 1) for i in range(n)]
        for i, (buyer, row) in enumerate(zip(market.buyers, values)):
            for choice, slot, value in zip(
                market.vendor_tuples, self.tuple_nodes, row
            ):
                edges.append(
                    Edge(1 + i, slot, 1, self.ceiling - value, (buyer.id, choice))
                )
        self.edges = tuple(edges)
        self.sink_edges = range(len(edges), len(edges) + k)
        self.residual = _Residual(self.network((0,) * k))
        # Per buyer, (cell, value) pairs from best to worst cell; per cell j,
        # top[j][m] is the sum of the m largest values in column j.
        self.ranked = [sorted(enumerate(row), key=lambda jv: -jv[1]) for row in values]
        self.top = [
            list(
                itertools.accumulate(
                    sorted((row[j] for row in values), reverse=True), initial=0
                )
            )
            for j in range(k)
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
        return FlowNetwork(self.sink + 1, 0, self.sink, self.edges + sink_edges)

    def _valued(self, routed: int, cost: int) -> Money:
        n_buyers = len(self.values)
        if routed != n_buyers:
            raise RuntimeError(
                f"assignment flow routed {routed} of {n_buyers} buyers"
            )
        return n_buyers * self.ceiling - cost

    def value(self, counts: tuple[int, ...]) -> Money:
        """Total valuation of the best assignment matching counts, routed
        on the compiled residual graph."""
        res = self.residual
        res.reset(zip(self.sink_edges, counts))
        return self._valued(*res.shortest_paths())

    def dual(self) -> tuple[Money, list[Money]]:
        """``(C, λ)`` from the potentials of the last ``value`` flow.

        ``λ_j`` is minus cell j's potential and ``C = Σ_i max_j (v_ij −
        λ_j)`` over every cell.  For any λ and any counts tuple n, weak
        duality gives ``value(n) ≤ C + Σ_j λ_j·n_j``; with the potentials
        of n's own flow the two sides are equal.
        """
        pot = self.residual.pot[self.tuple_nodes.start : self.sink]
        total = sum(max([v + p for v, p in zip(row, pot)]) for row in self.values)
        return total, [-p for p in pot]

    def solve(self, counts: tuple[int, ...]) -> tuple[dict, Money]:
        """Assignment and total valuation for one partition's counts."""
        flow = min_cost_max_flow(self.network(counts))
        choice = {tag[0]: tag[1] for tag, f in flow.tagged() if f > 0}
        return choice, self._valued(flow.value, flow.cost)


def total_price(market: Market, counts: tuple[int, ...]) -> Money:
    """Total buyer payments implied by per-cell counts alone.

    ``counts`` is aligned with ``market.vendor_tuples``.  Every assignment
    matching the counts is the same multiset of choices, so ``cell_prices``
    gives it the same per-cell prices.
    """
    cells = {choice: n for choice, n in zip(market.vendor_tuples, counts) if n}
    price = cell_prices(market, cells)
    return sum(n * price[choice] for choice, n in cells.items())


@dataclass(frozen=True, eq=False)
class SwmResult:
    allocation: Allocation
    social_welfare: Money
    partitions_evaluated: int
    partitions_priced: int
    flows_solved: int


def solve_swm(
    market: Market,
    max_partitions: int = DEFAULT_PARTITION_CAP,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> SwmResult:
    """Exact welfare maximization over every feasible partition.

    A depth-first search covers the count tuples in reverse lexicographic
    order, prices each leaf it reaches from the demand carried down its
    path and skips every subtree whose welfare bound is below the
    incumbent; only leaves whose own bounds reach the incumbent get a
    min-cost flow.  Equal-welfare ties resolve to the lexicographically
    smallest counts tuple, which the allocation determines; the winner's
    assignment comes from one flow on its own network after the search, so
    results are reproducible run to run.  Raises RuntimeError if that flow
    values the winner differently from the search.
    ``progress(covered, total)`` fires once per 1 000 partitions covered.

    The search runs in one process.  Raises BudgetExceeded, before any
    vendor tuple is built, when the partition count or the cell count
    exceeds ``max_partitions`` (the two differ only without buyers).

    ``jobs`` is deprecated and ignored: any value other than 1 warns with
    ``DeprecationWarning`` and runs the same search.  It is kept only for
    the benchmark's jobs=2 probe and is deleted once that probe is retired
    (ROADMAP item 1).
    """
    if jobs != 1:
        warnings.warn(
            "solve_swm(jobs=) is deprecated and ignored; the search runs in "
            "one process",
            DeprecationWarning,
            stacklevel=2,
        )
    cells = market.cell_count
    total = partition_count(len(market.buyers), cells)
    if total > max_partitions:
        raise BudgetExceeded(total, max_partitions)
    if cells > max_partitions:
        raise BudgetExceeded(cells, max_partitions, what="cells")

    search = _PartitionSearch(market)
    search.run(progress)
    welfare, counts, value = search.best
    choice, cold = search.layout.solve(counts)
    if cold != value:
        raise RuntimeError(
            f"partition {counts} is worth {cold} in its own flow but {value} "
            "in the search"
        )
    return SwmResult(
        allocation=Allocation(choice=choice),
        social_welfare=welfare,
        partitions_evaluated=total,
        partitions_priced=search.priced,
        flows_solved=search.flows,
    )


class _PartitionSearch:
    """One market's depth-first partition search; see the module docstring.

    The tables are built once per market: each cell's base price and demand
    indices, each tiered vendor's tier ladder, and the subtree bound's
    tables.  The bound charges each cell its lowest possible price: the
    lowest tier price for a full-bundle cell, the base price otherwise.
    """

    def __init__(self, market: Market) -> None:
        self.layout = layout = _AssignmentLayout(market)
        cells = market.vendor_tuples
        c = market.c
        n = len(market.buyers)
        tiered = [v for v in market.real_vendors if v.tiers]
        offset = {v.id: i * c for i, v in enumerate(tiered)}
        self.demand_size = len(tiered) * c
        self.base = [market.base_price(choice) for choice in cells]
        # Demand indices that a buyer in each cell adds one to.
        self.slots = [
            tuple(offset[vid] + k for k, vid in enumerate(choice) if vid in offset)
            for choice in cells
        ]
        # Per tiered vendor: its full-bundle cell and, from the highest tier
        # down, the (demand index, threshold) pairs to meet and the discount.
        self.bundles = []
        low = list(self.base)
        for v in tiered:
            cell = cells.index((v.id,) * c)
            at = offset[v.id]
            ladder = [
                (
                    tuple(
                        (i, t)
                        for i, t in zip(range(at, at + c), tier.thresholds)
                        if t > 0
                    ),
                    v.base_bundle_price - tier.bundle_price,
                )
                for tier in reversed(v.tiers)
            ]
            self.bundles.append((cell, ladder))
            low[cell] -= max(0, *(discount for _, discount in ladder))
        # adj[j][m]: the m highest values of cell j, each less p_lo(j).
        self.adj = [
            [top - m * price for m, top in enumerate(sums)]
            for sums, price in zip(layout.top, low)
        ]
        # suffix[k][r]: the r highest adjusted values over cells k and later.
        self.suffix = [[0]] * (len(cells) + 1)
        pool: list[Money] = []
        for k in range(len(cells) - 1, 0, -1):
            steps = [b - a for a, b in zip(self.adj[k], self.adj[k][1:])]
            pool = sorted(pool + steps, reverse=True)[:n]
            self.suffix[k] = list(itertools.accumulate(pool, initial=0))
        # sizes[left][r]: leaves under a node with ``left`` cells open.
        self.sizes = [[int(r == 0) for r in range(n + 1)]] + [
            [partition_count(r, left) for r in range(n + 1)]
            for left in range(1, len(cells) + 1)
        ]
        self.best: tuple | None = None
        # The (C, λ) pairs of the last four flows, newest first.
        self.duals: list[tuple[Money, list[Money]]] = []
        self.flows = 0
        self.priced = 0

    def run(self, progress: Callable[[int, int], None] | None = None) -> None:
        """Search every composition of the order.

        The search keeps an explicit stack, one level per cell, so that its
        depth is not bounded by Python's recursion limit.
        """
        base, slots, adj, suffix = self.base, self.slots, self.adj, self.suffix
        bundles, sizes, leaf = self.bundles, self.sizes, self._leaf
        last = len(base) - 1
        counts = [0] * len(base)
        demand = [0] * self.demand_size
        # Per level k, over the cells before k: buyers left, the sum of
        # their adj entries and the sum of their base prices.
        left = [len(self.layout.market.buyers)] + [0] * last
        bound = [0] * len(base)
        paid = [0] * len(base)
        total = sizes[last + 1][left[0]]
        pos = 0  # compositions covered so far
        mark = 1000

        def advance(size: int) -> None:
            nonlocal pos, mark
            pos += size
            while progress is not None and mark <= pos:
                progress(mark, total)
                mark += 1000

        k, m = 0, left[0] + 1
        while True:
            m -= 1
            if m < (left[k] if k == last else 0):
                # Cell k is exhausted: clear it and resume the cell before.
                for i in slots[k]:
                    demand[i] -= counts[k]
                counts[k] = 0
                if k == 0:
                    return
                k -= 1
                m = counts[k]
                continue
            rest = left[k] - m
            size = sizes[last - k][rest]
            child = bound[k] + adj[k][m]
            best = self.best
            if best is not None and child + suffix[k + 1][rest] < best[0]:
                advance(size)
                continue
            for i in slots[k]:
                demand[i] += m - counts[k]
            counts[k] = m
            if k < last:
                k += 1
                left[k], bound[k], paid[k] = rest, child, paid[k - 1] + m * base[k - 1]
                m = rest + 1
                continue
            price = paid[k] + m * base[k]
            for cell, ladder in bundles:
                n_bundle = counts[cell]
                if n_bundle:
                    for pairs, discount in ladder:
                        if all(demand[i] >= t for i, t in pairs):
                            price -= n_bundle * discount
                            break
            leaf(counts, price)
            advance(1)

    def _leaf(self, counts: list[int], price: Money) -> None:
        """Price-known leaf: value its flow unless a bound rules it out."""
        self.priced += 1
        best = self.best
        layout = self.layout
        key = tuple(counts)
        if best is not None:
            # Beating the incumbent needs an assignment worth ``needed``; the
            # flow is skipped only when a bound is strictly below it, so an
            # equal-welfare partition still reaches the tie rule below.
            needed = best[0] + price
            if layout.upper_bound(key, needed) < needed:
                return
            for total, lam in self.duals:
                if total + sum([x * n for x, n in zip(lam, counts)]) < needed:
                    return
        value = layout.value(key)
        self.flows += 1
        self.duals.insert(0, layout.dual())
        del self.duals[4:]
        welfare = value - price
        # Leaves come in lexicographically descending order, so replacing
        # the incumbent on equal welfare leaves the lexicographically
        # smallest partition as the winner.
        if best is None or welfare >= best[0]:
            self.best = (welfare, key, value)


def brute_force_swm(
    market: Market, max_allocations: int = DEFAULT_ALLOCATION_CAP
) -> tuple[Allocation, Money]:
    """Exact optimum by enumerating every allocation outright.

    Test oracle only: the count grows as (vendor count)^(c * buyers).  The
    caps are checked before any vendor tuple is built.
    """
    n = len(market.buyers)
    cell_count = market.cell_count
    needed = cell_count**n
    if needed > max_allocations:
        raise BudgetExceeded(needed, max_allocations, what="allocations")
    if cell_count > max_allocations:
        raise BudgetExceeded(cell_count, max_allocations, what="cells")
    cells = market.vendor_tuples

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
            cached = total_price(market, key)
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
