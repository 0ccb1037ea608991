"""Group transfers, per-buyer transfers, and final prices.

Group transfers move money from positive-surplus bundle buyers of a vendor
to negative-surplus buyers purchasing from that vendor.  They are found as
a max flow on a three-layer network, split between individual buyers
proportionally to surplus, and finally folded into per-buyer prices.
Amounts at the group level are integers; per-buyer splits are exact
rationals, matched as integers over each split's common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, TypeVar

from .flow import FlowNetwork, NetworkBuilder, max_flow
from .model import (
    Allocation,
    BuyerId,
    GroupPartition,
    Market,
    Money,
    VendorId,
    VendorTuple,
    group_partition,
    market_prices,
)


Amount = TypeVar("Amount", int, Fraction)


class Unstabilizable(Exception):
    """The transfer flow cannot cover some group's required subsidy.

    Never raised for welfare-maximal inputs; seeing it means the allocation
    was not welfare-maximal (or the caller fed inconsistent data).
    """

    def __init__(self, deficits: Mapping[VendorTuple, Money]) -> None:
        detail = ", ".join(
            f"{{{','.join(x)}}} short by {d}" for x, d in sorted(deficits.items())
        )
        super().__init__(f"transfers cannot stabilize groups: {detail}")
        self.deficits = dict(deficits)


class SumMismatch(ValueError):
    """Offered and requested totals differ where exact equality is required."""


class NonZeroSum(ValueError):
    """Price deltas must sum to zero."""


@dataclass(frozen=True, eq=False)
class GroupTransfers:
    """Positive transfer amounts keyed by (paying vendor group, receiving
    choice group); absent entries are zero."""

    entries: Mapping[tuple[VendorId, VendorTuple], Money]

    def amount(self, vendor: VendorId, group: VendorTuple) -> Money:
        return self.entries.get((vendor, group), 0)

    def outgoing_totals(self) -> dict[VendorId, Money]:
        totals: dict[VendorId, Money] = {}
        for (vendor, _group), amount in self.entries.items():
            totals[vendor] = totals.get(vendor, 0) + amount
        return totals

    def incoming_totals(self) -> dict[VendorTuple, Money]:
        totals: dict[VendorTuple, Money] = {}
        for (_vendor, group), amount in self.entries.items():
            totals[group] = totals.get(group, 0) + amount
        return totals

    def sorted_entries(self) -> list[tuple[VendorId, VendorTuple, Money]]:
        return [(s, x, a) for (s, x), a in sorted(self.entries.items())]


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Sparse positive transfers payer -> payee, exact rational amounts."""

    entries: Mapping[tuple[BuyerId, BuyerId], Fraction]

    def net_outflows(self) -> dict[BuyerId, Fraction]:
        """Payments minus receipts per buyer named in the matrix, keyed in
        order of first appearance (payer before payee within an entry)."""
        flows: dict[BuyerId, Fraction] = {}
        for (payer, payee), amount in self.entries.items():
            flows[payer] = flows.get(payer, 0) + amount
            flows[payee] = flows.get(payee, 0) - amount
        return flows

    def net_outflow(self, buyer_id: BuyerId) -> Fraction:
        return self.net_outflows().get(buyer_id, Fraction(0))


@dataclass(frozen=True)
class PriceEntry:
    market_price: Money
    delta: Fraction
    final: Fraction


@dataclass(frozen=True, eq=False)
class PriceVector:
    entries: Mapping[BuyerId, PriceEntry]

    def delta(self, buyer_id: BuyerId) -> Fraction:
        return self.entries[buyer_id].delta

    def final(self, buyer_id: BuyerId) -> Fraction:
        return self.entries[buyer_id].final


@dataclass(frozen=True, eq=False)
class CrossTransferGraph:
    """Digraph over vendors with an edge per cross-paid group membership."""

    nodes: tuple[VendorId, ...]
    edges: frozenset[tuple[VendorId, VendorId]]

    def is_acyclic(self) -> bool:
        return shortest_cycle(self) is None


def group_transfer_network(gp: GroupPartition) -> FlowNetwork:
    """Three-layer network whose feasible flows are exactly the rational
    group transfers: source -> choice groups -> vendors -> sink."""
    builder = NetworkBuilder()
    source = builder.add_node()
    group_nodes = {x: builder.add_node() for x in sorted(gp.negative_groups)}
    vendor_ids = sorted(
        {s for x in gp.negative_groups for s in x}
        | {s for s, total in gp.positive_totals.items() if total > 0}
    )
    vendor_nodes = {s: builder.add_node() for s in vendor_ids}
    sink = builder.add_node()
    for x, node in group_nodes.items():
        builder.add_edge(source, node, gp.negative_totals[x], 0)
    for x, node in group_nodes.items():
        for s in x:
            builder.add_edge(node, vendor_nodes[s], gp.negative_totals[x], 0, tag=(s, x))
    for s, node in vendor_nodes.items():
        builder.add_edge(node, sink, gp.positive_totals.get(s, 0), 0)
    return builder.build(source, sink)


def solve_group_transfers(
    market: Market, alloc: Allocation, gp: GroupPartition | None = None
) -> GroupTransfers:
    """Rational, stabilizing group transfers via max flow.

    A given ``gp`` must be ``group_partition(market, alloc)``; without one
    it is derived here.  Raises Unstabilizable when some group's subsidy
    cannot be covered, identifying every deficient group.
    """
    if gp is None:
        gp = group_partition(market, alloc)
    net = group_transfer_network(gp)
    flow = max_flow(net)
    gt = GroupTransfers(entries={tag: f for tag, f in flow.tagged() if f > 0})
    received = gt.incoming_totals()
    deficits = {
        x: needed - received.get(x, 0)
        for x, needed in gp.negative_totals.items()
        if received.get(x, 0) < needed
    }
    if deficits:
        raise Unstabilizable(deficits)
    return gt


def greedy_match(
    offers: Iterable[tuple[BuyerId, Amount]],
    requests: Iterable[tuple[BuyerId, Amount]],
) -> dict[tuple[BuyerId, BuyerId], Amount]:
    """Two-pointer matching: each offer is spent in order until the current
    request is met, leaving at most offers+requests-1 nonzero transfers.
    Amounts keep the number type they are given (``int`` or ``Fraction``)."""
    offers = list(offers)
    requests = list(requests)
    if any(a < 0 for _, a in offers) or any(a < 0 for _, a in requests):
        raise ValueError("amounts must be nonnegative")
    offered = sum(a for _, a in offers)
    requested = sum(a for _, a in requests)
    if offered != requested:
        raise SumMismatch(f"offered {offered} != requested {requested}")

    result: dict[tuple[BuyerId, BuyerId], Amount] = {}
    i = 0
    for payee, need in requests:
        while need > 0:
            payer, avail = offers[i]
            if avail <= 0:
                i += 1
                continue
            paid = min(avail, need)
            result[(payer, payee)] = result.get((payer, payee), 0) + paid
            need -= paid
            avail -= paid
            offers[i] = (payer, avail)
            if avail == 0:
                i += 1
    return result


def fair_buyer_transfers(
    market: Market,
    alloc: Allocation,
    gp: GroupPartition,
    gt: GroupTransfers,
) -> TransferMatrix:
    """Split group transfers between buyers proportionally to surplus.

    Group transfers are taken in ``(vendor, group)`` order.  A transfer of
    ``amount`` from vendor ``s`` to choice group ``x`` costs each payer
    ``amount·σ_b/P`` and gives each receiver ``amount·(−σ_r)/Q``, where
    ``P`` is the surplus of ``s``'s positive group and ``Q`` the subsidy
    ``x`` needs.  Both sides are scaled by ``P·Q`` and matched on integers.
    Raises SumMismatch when a transfer targets an unknown group or comes
    from a vendor with no positive group, or when a vendor's transfers
    exceed ``P``.
    """
    entries: dict[tuple[BuyerId, BuyerId], Fraction] = {}
    spent: dict[VendorId, Money] = {}
    for s, x in sorted(gt.entries):
        amount = gt.entries[(s, x)]
        if amount == 0:
            continue
        if x not in gp.negative_totals:
            raise SumMismatch(f"transfers target unknown group {x!r}")
        if s not in gp.positive_totals:
            raise SumMismatch(f"vendor {s!r} owes {amount} without a positive group")
        p, q = gp.positive_totals[s], gp.negative_totals[x]
        left = p - spent.get(s, 0)
        if left < amount:
            raise SumMismatch(f"vendor {s!r} owes {amount} with only {left} left")
        spent[s] = spent.get(s, 0) + amount
        offers = [(b, amount * gp.surplus[b] * q) for b in gp.positive_groups[s]]
        requests = [(b, -amount * gp.surplus[b] * p) for b in gp.negative_groups[x]]
        for pair, paid in greedy_match(offers, requests).items():
            entries[pair] = entries.get(pair, 0) + Fraction(paid, p * q)
    return TransferMatrix(entries=entries)


def prices_from_transfers(
    market: Market, alloc: Allocation, matrix: TransferMatrix
) -> PriceVector:
    """Fold pairwise transfers into each buyer's final price."""
    flows = matrix.net_outflows()
    deltas = {b: flows.pop(b, Fraction(0)) for b in market.buyer_ids}
    if flows:
        raise ValueError(f"transfer references unknown buyer {next(iter(flows))!r}")
    return price_vector(market, alloc, deltas)


def price_vector(
    market: Market, alloc: Allocation, deltas: Mapping[BuyerId, Fraction]
) -> PriceVector:
    """Each buyer's market price under ``alloc`` (from the tiers it
    triggers) plus her delta."""
    entries: dict[BuyerId, PriceEntry] = {}
    for b, base in market_prices(market, alloc).items():
        delta = deltas[b]
        entries[b] = PriceEntry(market_price=base, delta=delta, final=base + delta)
    return PriceVector(entries=entries)


def transfers_from_price_deltas(
    deltas: Mapping[BuyerId, Fraction | int]
) -> TransferMatrix:
    """Rebuild pairwise transfers realizing the given zero-sum deltas.

    Positive-delta buyers pay, negative-delta buyers receive: the last
    receiver is covered from the tail of the payer list, splitting one
    payer at the boundary, and the construction recurses on the rest.
    """
    exact = {b: Fraction(d) for b, d in deltas.items()}
    if sum(exact.values(), Fraction(0)) != 0:
        raise NonZeroSum(f"deltas sum to {sum(exact.values(), Fraction(0))}")
    payers = [(b, exact[b]) for b in sorted(exact, reverse=True) if exact[b] > 0]
    payees = [(b, -exact[b]) for b in sorted(exact, reverse=True) if exact[b] < 0]
    return TransferMatrix(entries=greedy_match(payers, payees))


def cross_transfer_graph(
    gt: GroupTransfers, vendors: Iterable[VendorId] | None = None
) -> CrossTransferGraph:
    """Edge (s, s') for every positive transfer a vendor s pays to a group
    containing s' but not s itself.  No edges means the transfers are
    rational."""
    nodes = set(vendors) if vendors is not None else set()
    for (s, x), _amount in gt.entries.items():
        nodes.add(s)
        nodes.update(x)
    edges: set[tuple[VendorId, VendorId]] = set()
    for (s, x), amount in gt.entries.items():
        if amount > 0 and s not in x:
            edges.update((s, member) for member in x)
    return CrossTransferGraph(nodes=tuple(sorted(nodes)), edges=frozenset(edges))


def shortest_cycle(graph: CrossTransferGraph) -> tuple[VendorId, ...] | None:
    """Shortest directed cycle; ties go to the lexicographically smallest
    canonical node sequence.  Exhaustive search (the graphs are tiny)."""
    adj: dict[VendorId, list[VendorId]] = {v: [] for v in graph.nodes}
    for a, b in sorted(graph.edges):
        adj[a].append(b)

    best: tuple[VendorId, ...] | None = None

    def canonical(cycle: tuple[VendorId, ...]) -> tuple[VendorId, ...]:
        pivot = cycle.index(min(cycle))
        return cycle[pivot:] + cycle[:pivot]

    def consider(cycle: tuple[VendorId, ...]) -> None:
        nonlocal best
        canon = canonical(cycle)
        if best is None or (len(canon), canon) < (len(best), best):
            best = canon

    def dfs(start: VendorId, path: list[VendorId], on_path: set[VendorId]) -> None:
        for nxt in adj[path[-1]]:
            if nxt == start:
                consider(tuple(path))
            elif nxt > start and nxt not in on_path:
                if best is not None and len(path) + 1 >= len(best):
                    continue
                path.append(nxt)
                on_path.add(nxt)
                dfs(start, path, on_path)
                on_path.discard(nxt)
                path.pop()

    # Enumerate cycles by smallest member to visit each one exactly once.
    for start in graph.nodes:
        dfs(start, [start], {start})
    return best


def eliminate_cycles(gt: GroupTransfers, gp: GroupPartition) -> GroupTransfers:
    """Rewrite group transfers into equivalent ones with no transfer cycles.

    Per-vendor outgoing totals and per-group incoming totals are preserved
    exactly.  Each round removes a shortest cycle (two vendors swap their
    mutual cross payments) or shortens it by one hop, and total
    cross-transfer strictly decreases, so the loop terminates.
    """
    _check_coverage(gt, gp)
    entries = dict(gt.entries)
    while True:
        graph = cross_transfer_graph(GroupTransfers(entries=entries))
        cycle = shortest_cycle(graph)
        if cycle is None:
            break
        entries = _reduce_cycle(entries, cycle)
    return GroupTransfers(entries=entries)


def _check_coverage(gt: GroupTransfers, gp: GroupPartition) -> None:
    outgoing = gt.outgoing_totals()
    for s, paid in outgoing.items():
        budget = gp.positive_totals.get(s, 0)
        if paid > budget:
            raise ValueError(f"vendor {s!r} pays {paid} over budget {budget}")
    incoming = gt.incoming_totals()
    for x, needed in gp.negative_totals.items():
        if incoming.get(x, 0) != needed:
            raise ValueError(
                f"group {x!r} receives {incoming.get(x, 0)}, needs {needed}"
            )
    for x in incoming:
        if x not in gp.negative_totals:
            raise ValueError(f"transfers point at unknown group {x!r}")


def _cross_entries(
    entries: Mapping[tuple[VendorId, VendorTuple], Money],
    payer: VendorId,
    member: VendorId,
) -> list[VendorTuple]:
    """Groups that `payer` cross-pays and that contain `member`."""
    return sorted(
        x
        for (s, x), amount in entries.items()
        if s == payer and amount > 0 and payer not in x and member in x
    )


def _reduce_cycle(
    entries: dict[tuple[VendorId, VendorTuple], Money],
    cycle: tuple[VendorId, ...],
) -> dict[tuple[VendorId, VendorTuple], Money]:
    """One reduction round on ``cycle`` (first node pays the least cross)."""
    k = len(cycle)
    hops = [
        _cross_entries(entries, cycle[i], cycle[(i + 1) % k]) for i in range(k)
    ]
    totals = [sum(entries[(cycle[i], x)] for x in hops[i]) for i in range(k)]
    pivot = min(range(k), key=lambda i: (totals[i], cycle[i]))
    cycle = cycle[pivot:] + cycle[:pivot]
    hops = hops[pivot:] + hops[:pivot]
    moved = totals[pivot]

    first, last = cycle[0], cycle[-1]
    first_groups = hops[0]
    last_groups = hops[-1]

    updated = dict(entries)
    # The first vendor stops cross-paying the groups shared with its
    # successor; the predecessor covers them instead.
    for x in first_groups:
        amount = updated.pop((first, x))
        updated[(last, x)] = updated.get((last, x), 0) + amount
    # The freed budget takes over an equal amount of the predecessor's
    # payments to groups containing the first vendor.
    remaining = moved
    for x in last_groups:
        if remaining == 0:
            break
        take = min(remaining, updated.get((last, x), 0))
        if take == 0:
            continue
        updated[(last, x)] -= take
        if updated[(last, x)] == 0:
            del updated[(last, x)]
        updated[(first, x)] = updated.get((first, x), 0) + take
        remaining -= take
    assert remaining == 0
    return updated
