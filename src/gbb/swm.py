"""Social-welfare-maximizing allocations.

The solver conditions on a *partition*: per-cell buyer counts, a tuple
aligned with ``market.vendor_tuples`` (the cells).  For fixed counts the
best assignment is a capacitated assignment problem.  A leaf's value comes
from a dense Hungarian-style kernel over the leaf's open cells, those with
``n_j > 0``, which also returns the assignment it built and cell prices
that are LP duals (``_AssignmentLayout``).  The winner keeps the
assignment of the kernel run that valued it.

A depth-first search covers every partition: the first cell's count runs
down from N, then the search recurses on the remaining cells, so leaves
come in reverse lexicographic order.  The path carries only the counts
and the subtree bound.  A leaf prices itself from its counts, as
``cell_prices`` defines it: the counts times the cells' base prices, less
a discount per tiered vendor whose full-bundle cell holds buyers.  That
discount is the bundle count times the discount of the highest tier the
vendor's demand meets, where an item's demand is the sum of the counts of
the cells that buy it from the vendor.  ``total_price`` stays as the
reference.  A leaf gets
its value only when the LP-dual bound of each of the last four leaf values,
less its price, reaches the incumbent.  The kernel's cell prices ``λ_j``
give, by weak duality, every counts tuple n a value of at most
``C(λ) + Σ_j λ_j·n_j`` with ``C(λ) = Σ_i max_j (v_ij − λ_j)`` over all
cells.  An interior node with cells ``< k`` fixed and ``r`` buyers left
is skipped with its whole subtree when the fixed cells' best values net of
their lowest possible prices, plus the ``r`` best such values over the
open cells, fall strictly below the incumbent.  Every bound skips only
what is strictly below the incumbent, so the welfare and the chosen
partition are those of valuing every leaf.  The incumbent holds the
welfare and the kernel's assignment, so ties between equal-value
assignments resolve as the kernel inserts buyers: in id order, each along
a shortest augmenting path, taking the first cell in cell order on equal
distances.  No flow runs during the search or after it.  The search runs
in one process, so every bound compares against the best leaf of the
whole order found so far.

``solve_swm`` seeds the incumbent before the search starts.  A tier class
fixes one tier, or none, per tiered vendor and so fixes every cell's
price.  Per class, each buyer takes its best cell at those prices, and the
counts this gives are priced truthfully with the leaves' own fold.  The
best welfare over the classes is that of a real allocation, so it is at
most the optimum: every leaf at or above it is still valued, and the
winner, its assignment and the tie rule are those of an unseeded search.
Past ``_SEED_CLASSES`` classes only the class without discounts and the
class at every vendor's highest tier are tried.

``SwmResult.partitions_evaluated`` counts partitions covered, priced or
ruled out with their subtree, so it always equals ``partition_count``; it
is the result's one partition counter.  ``partitions_priced`` counts
leaves priced, and ``flows_solved`` the leaves whose exact value the
kernel computed; the seed's pricings count in neither.  A brute-force
enumerator over whole allocations serves as the independent oracle at
desk scale.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from operator import ge, mul, sub
from typing import Callable

from .flow import Edge, FlowNetwork, min_cost_max_flow
from .model import Allocation, Market, Money, cell_prices

DEFAULT_PARTITION_CAP = 5_000_000
DEFAULT_ALLOCATION_CAP = 1_000_000
#: Most tier classes the search's seed tries; see ``_PartitionSearch.seed``.
_SEED_CLASSES = 256


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
    """One market's valuation table, and the best assignment of buyers to
    cells for a partition's counts.  Both ``value`` and ``solve`` see only
    the partition's open cells, those with ``n_j > 0``: K′ ≤ min(N, K) of
    the market's K cells.  The search runs ``value`` alone; ``solve`` is
    the independent reference that the tests check the kernel against.

    ``value`` finds a partition's assignment value with a dense assignment
    kernel, the capacitated form of the Hungarian shortest-augmenting-path
    method (Kuhn 1955; Jonker & Volgenant 1987).  It inserts the buyers
    one at a time.  Each insertion is a Dijkstra without a heap over the
    open cells, in O(K′² + N·K′), and leaves an optimal assignment of the
    buyers inserted so far together with cell prices ``λ_j`` that make
    every buyer's own cell one of its best: ``u_i = v_ij − λ_j`` for its
    cell j and ``u_i ≥ v_ik − λ_k`` for every open cell k.  It returns
    the assignment, and those prices, extended to the closed cells, as the
    LP dual that the search's one leaf bound reads.

    ``solve`` builds the partition's flow network and solves it with
    ``min_cost_max_flow``: with N buyers and K′ open cells, the source is
    node 0, buyer i is node ``1 + i``, the r-th open cell in cell order is
    node ``1 + N + r`` and the sink is ``N + K′ + 1``.  Source->buyer
    edges have unit capacity; buyer->cell edges, tagged ``(buyer id,
    choice)``, cost ``ceiling`` less the valuation, where ``ceiling`` is
    the market's largest valuation, so no cost is negative; cell->sink
    capacities are the counts.  Every buyer crosses exactly one
    buyer->cell edge, so a flow routing all N buyers is worth ``N *
    ceiling`` less its cost.  A closed cell's node would be a dead end
    (sink capacity 0, no flow in), and the numbering keeps the nodes'
    relative order, so the flow is that of the network over all K cells.
    """

    def __init__(self, market: Market) -> None:
        self.market = market
        self.values = values = [
            [buyer.valuation(choice) for choice in market.vendor_tuples]
            for buyer in market.buyers
        ]
        self.columns = list(zip(*values)) or [()] * len(market.vendor_tuples)
        self.ceiling = max((v for row in values for v in row), default=0)

    def network(self, counts: tuple[int, ...]) -> FlowNetwork:
        """The partition's N·K′ + N + K′ edges; see the class docstring."""
        market, ceiling = self.market, self.ceiling
        cells = [j for j, m in enumerate(counts) if m]
        n = len(self.values)
        sink = n + len(cells) + 1
        nodes = range(n + 1, sink)
        choices = [market.vendor_tuples[j] for j in cells]
        edges = [Edge(0, 1 + i, 1) for i in range(n)]
        for i, (buyer, row) in enumerate(zip(market.buyers, self.values)):
            for j, choice, node in zip(cells, choices, nodes):
                edges.append(Edge(1 + i, node, 1, ceiling - row[j], (buyer.id, choice)))
        edges.extend(Edge(node, sink, counts[j]) for node, j in zip(nodes, cells))
        return FlowNetwork(sink + 1, 0, sink, tuple(edges))

    def _routed(self, routed: int) -> None:
        """Raise RuntimeError unless every buyer found a slot."""
        n_buyers = len(self.values)
        if routed != n_buyers:
            raise RuntimeError(f"assignment routed {routed} of {n_buyers} buyers")

    def value(
        self, counts: tuple[int, ...]
    ) -> tuple[Money, tuple[Money, list[Money]], list[int]]:
        """Total valuation of the best assignment matching counts, from the
        open-cell kernel (see the class docstring), its LP dual ``(C, λ)``
        and the assignment: one cell index per buyer, in buyer order.

        Buyer s is inserted at distance ``dist_j = u_s − (v_sj − λ_j)``
        from each open cell j, ``u_s`` being its best net value.  The
        cheapest unscanned cell t, the first in index order on a tie, is
        the target if it has a free slot; otherwise each member i of t
        relaxes the other unscanned cells j to ``dist_t + u_i − (v_ij −
        λ_j)``.  Every scanned cell's price then rises by ``D − dist_j``, D
        being the target's distance, and the buyers on the path shift one
        cell on.  Buyers go in by index (id order), and a cell's predecessor
        is the first member to lower its distance; these first-in-order
        choices break ties between equal-value assignments.  Raises
        RuntimeError when the counts sum to fewer than the buyers.

        In the dual, an open cell keeps its kernel price; a closed cell j
        gets ``λ_j = max_i (v_ij − u_i)``, or 0 without buyers, the least
        price at which no buyer prefers it.  Then ``C = Σ_i u_i`` and every
        buyer's utility is its best ``v_ij − λ_j`` over all cells, so by
        weak LP duality every counts tuple n has ``value(n) ≤ C + Σ_j
        λ_j·n_j``, with equality at ``counts``.
        """
        cells = [j for j, m in enumerate(counts) if m]
        free = [counts[j] for j in cells]
        rows = [[row[j] for j in cells] for row in self.values]
        width = len(cells)
        lam = [0] * width
        members: list[list[int]] = [[] for _ in cells]
        cell_of: list[int] = []
        for s, row in enumerate(rows):
            net = [v - p for v, p in zip(row, lam)]
            top = max(net, default=0)
            dist = [top - x for x in net]
            pred = [s] * width
            todo = list(range(width))
            scanned = []
            while True:
                if not todo:
                    self._routed(s)
                t = min(todo, key=dist.__getitem__)
                d = dist[t]
                if free[t]:
                    break
                todo.remove(t)
                scanned.append(t)
                lam_t = lam[t]
                for i in members[t]:
                    r = rows[i]
                    base = d + r[t] - lam_t
                    for j in todo:
                        nd = base - r[j] + lam[j]
                        if nd < dist[j]:
                            dist[j] = nd
                            pred[j] = i
            for j in scanned:
                lam[j] += d - dist[j]
            free[t] -= 1
            j, i = t, pred[t]
            while i != s:
                k = cell_of[i]
                members[k].remove(i)
                members[j].append(i)
                cell_of[i] = j
                j, i = k, pred[k]
            members[j].append(s)
            cell_of.append(j)
        utility = [r[j] - lam[j] for r, j in zip(rows, cell_of)]
        open_prices = iter(lam)
        prices = [
            next(open_prices) if m else max(map(sub, column, utility), default=0)
            for m, column in zip(counts, self.columns)
        ]
        value = sum(r[j] for r, j in zip(rows, cell_of))
        return value, (sum(utility), prices), [cells[j] for j in cell_of]

    def solve(self, counts: tuple[int, ...]) -> tuple[dict, Money]:
        """Assignment and total valuation for one partition's counts."""
        flow = min_cost_max_flow(self.network(counts))
        self._routed(flow.value)
        choice = {tag[0]: tag[1] for tag, f in flow.tagged() if f > 0}
        return choice, len(self.values) * self.ceiling - flow.cost


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
    order, prices each leaf it reaches from the leaf's own counts and
    skips every subtree whose welfare bound is below the incumbent; only
    leaves whose own bounds reach the incumbent are valued.  The
    incumbent starts at the best allocation over the tier classes, at
    most ``_SEED_CLASSES`` of them (see the module docstring), which
    changes only how much the search skips; the seed's pricings are not
    counted in ``partitions_priced`` or ``flows_solved``.  Equal-welfare
    ties resolve to the lexicographically smallest counts tuple, which the
    allocation determines; the winner's assignment is the one the kernel
    built when it valued that leaf, and equal-value assignments resolve in
    the kernel's insertion order (see the module docstring), so results
    are reproducible run to run.
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
    search.best = search.seed()
    search.run(progress)
    welfare, assignment = search.best
    choice = {b.id: market.vendor_tuples[j] for b, j in zip(market.buyers, assignment)}
    return SwmResult(
        allocation=Allocation(choice=choice),
        social_welfare=welfare,
        partitions_evaluated=total,
        partitions_priced=search.priced,
        flows_solved=search.flows,
    )


class _PartitionSearch:
    """One market's depth-first partition search; see the module docstring.

    The tables are built once per market: each cell's base price; per
    tiered vendor its full-bundle cell, the cells that buy each item from
    it and its tier ladder; and the subtree bound's tables.  The bound
    charges each cell its lowest possible price: the lowest tier price for
    a full-bundle cell, the base price otherwise.
    """

    def __init__(self, market: Market) -> None:
        self.layout = layout = _AssignmentLayout(market)
        cells = market.vendor_tuples
        c = market.c
        n = len(market.buyers)
        tiered = [v for v in market.real_vendors if v.tiers]
        # Cells are the product of the vendors per item, so their base
        # prices are the sums over the product of the per-item price columns.
        columns = [[v.base_prices[k] for v in market.vendors] for k in range(c)]
        self.base = list(map(sum, itertools.product(*columns)))
        # Per tiered vendor and item, the cells that buy that item from it.
        buying = {v.id: [[] for _ in range(c)] for v in tiered}
        for j, choice in enumerate(cells):
            for k, vid in enumerate(choice):
                if vid in buying:
                    buying[vid][k].append(j)
        # Per tiered vendor: its full-bundle cell, the cells buying each item
        # from it and, from the highest tier down, each tier's thresholds and
        # discount.
        self.bundles = []
        low = list(self.base)
        for v in tiered:
            cell = cells.index((v.id,) * c)
            ladder = [
                (tier.thresholds, v.base_bundle_price - tier.bundle_price)
                for tier in reversed(v.tiers)
            ]
            self.bundles.append((cell, buying[v.id], ladder))
            low[cell] -= max(0, *(discount for _, discount in ladder))
        # adj[j][m]: the m highest values of cell j, each less p_lo(j).
        self.adj = [
            list(
                itertools.accumulate(
                    (v - price for v in sorted(column, reverse=True)), initial=0
                )
            )
            for column, price in zip(layout.columns, low)
        ]
        # suffix[k][r]: the r highest adjusted values over cells k and later.
        self.suffix = [[0]] * (len(cells) + 1)
        pool: list[Money] = []
        for k in range(len(cells) - 1, 0, -1):
            steps = [b - a for a, b in zip(self.adj[k], self.adj[k][1:])]
            pool = sorted(pool + steps, reverse=True)[:n]
            self.suffix[k] = list(itertools.accumulate(pool, initial=0))
        self.best: tuple | None = None
        # The (C, λ) pairs of the last four leaf values, newest first.
        self.duals: list[tuple[Money, list[Money]]] = []
        self.flows = 0
        self.priced = 0

    def run(self, progress: Callable[[int, int], None] | None = None) -> None:
        """Search every composition of the order.

        The search keeps an explicit stack, one level per cell, so that its
        depth is not bounded by Python's recursion limit.
        """
        adj, suffix = self.adj, self.suffix
        price, leaf = self._price, self._leaf
        last = len(adj) - 1
        counts = [0] * len(adj)
        # Per level k, over the cells before k: buyers left and the sum of
        # their adj entries.
        left = [len(self.layout.market.buyers)] + [0] * last
        bound = [0] * len(adj)
        # Progress bookkeeping runs only when a hook is given.
        total = 0 if progress is None else partition_count(left[0], last + 1)
        pos = 0  # compositions covered so far
        mark = 1000

        def advance(size: int) -> None:
            nonlocal pos, mark
            pos += size
            while mark <= pos:
                progress(mark, total)
                mark += 1000

        k, m = 0, left[0] + 1
        while True:
            m -= 1
            if m < (left[k] if k == last else 0):
                # Cell k is exhausted: resume the cell before.  A leaf sets
                # every count on its path, so a stale counts[k] is never read.
                if k == 0:
                    return
                k -= 1
                m = counts[k]
                continue
            rest = left[k] - m
            child = bound[k] + adj[k][m]
            best = self.best
            if best is not None and child + suffix[k + 1][rest] < best[0]:
                if progress is not None:
                    advance(partition_count(rest, last - k) if k < last else 1)
                continue
            counts[k] = m
            if k < last:
                k += 1
                left[k], bound[k] = rest, child
                m = rest + 1
                continue
            leaf(counts, price(counts))
            if progress is not None:
                advance(1)

    def _price(self, counts: list[int]) -> Money:
        """The total price of ``counts``, folded as the module docstring
        says: the base prices less each triggered bundle discount."""
        price = sum(map(mul, counts, self.base))
        count_of = counts.__getitem__
        for cell, buying, ladder in self.bundles:
            n_bundle = counts[cell]
            if n_bundle:
                volume = [sum(map(count_of, item)) for item in buying]
                for thresholds, discount in ladder:
                    if all(map(ge, volume, thresholds)):
                        price -= n_bundle * discount
                        break
        return price

    def seed(self) -> tuple[Money, list[int]]:
        """The welfare and assignment of the best tier-class allocation,
        the search's first incumbent; see the module docstring.

        Under a class, a buyer takes its best cell at base prices, the
        first in cell order on a tie, unless a full-bundle cell at the
        class's discount is strictly better.  Classes that give the same
        allocation are priced once.
        """
        base, values = self.base, self.layout.values
        bundle_cells = [cell for cell, _, _ in self.bundles]
        # Per tiered vendor: no discount, then each tier's, highest first.
        ladders = [[0] + [d for _, d in ladder] for _, _, ladder in self.bundles]
        if math.prod(map(len, ladders)) <= _SEED_CLASSES:
            classes = itertools.product(*ladders)
        else:
            classes = [[0] * len(ladders), [ladder[1] for ladder in ladders]]
        # Each buyer's cell at base prices and, for the buyers whom some
        # class moves, their best net value there and the bundle cells the
        # vendor's highest tier makes strictly better.
        home, movers = [], []
        for i, row in enumerate(values):
            net = list(map(sub, row, base))
            top = max(net)
            home.append(net.index(top))
            options = [
                (s, cell, net[cell])
                for s, (cell, ladder) in enumerate(zip(bundle_cells, ladders))
                if net[cell] + ladder[1] > top
            ]
            if options:
                movers.append((i, top, options))
        best, seen = None, set()
        for discounts in classes:
            moves = []
            for i, top, options in movers:
                j = home[i]
                for s, cell, net in options:
                    net += discounts[s]
                    if net > top:
                        top, j = net, cell
                if j != home[i]:
                    moves.append((i, j))
            key = tuple(moves)
            if key in seen:
                continue
            seen.add(key)
            assignment = list(home)
            for i, j in moves:
                assignment[i] = j
            counts = [0] * len(base)
            for j in assignment:
                counts[j] += 1
            welfare = sum(map(list.__getitem__, values, assignment))
            welfare -= self._price(counts)
            if best is None or welfare > best[0]:
                best = (welfare, assignment)
        return best

    def _leaf(self, counts: list[int], price: Money) -> None:
        """Price-known leaf: value it unless a bound rules it out."""
        self.priced += 1
        best = self.best
        if best is not None:
            # Beating the incumbent needs an assignment worth ``needed``; the
            # leaf is skipped only when a kept dual's bound is strictly below
            # it, so an equal-welfare partition still reaches the tie rule.
            needed = best[0] + price
            for total, lam in self.duals:
                if total + sum([x * n for x, n in zip(lam, counts)]) < needed:
                    return
        value, dual, assignment = self.layout.value(tuple(counts))
        self.flows += 1
        self.duals.insert(0, dual)
        del self.duals[4:]
        welfare = value - price
        # Leaves come in lexicographically descending order, so replacing
        # the incumbent on equal welfare leaves the lexicographically
        # smallest partition as the winner.
        if best is None or welfare >= best[0]:
            self.best = (welfare, assignment)


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
