"""Group transfers, per-buyer transfers, and final prices.

Group transfers move money from positive-surplus bundle buyers of a vendor
to negative-surplus buyers purchasing from that vendor.  They are found as
a max flow on a three-layer network, split between individual buyers
proportionally to surplus, and finally folded into per-buyer prices.
Amounts at the group level are integers; per-buyer splits are exact
rationals, matched as integers over each split's common denominator.
Fairness makes an amount depend only on surpluses, so a few distinct
values repeat across many buyers: within one call each distinct matched
amount, delta, final price and ``PriceEntry`` is built once and shared.
No such table outlives its call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .flow import Edge, FlowNetwork, max_flow
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


@dataclass(frozen=True, eq=False)
class GroupTransfers:
    """Positive transfer amounts keyed by (paying vendor group, receiving
    choice group); absent entries are zero."""

    entries: Mapping[tuple[VendorId, VendorTuple], Money]

    def incoming_totals(self) -> dict[VendorTuple, Money]:
        totals: dict[VendorTuple, Money] = {}
        for (_vendor, group), amount in self.entries.items():
            totals[group] = totals.get(group, 0) + amount
        return totals


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Sparse positive transfers payer -> payee, exact rational amounts."""

    entries: Mapping[tuple[BuyerId, BuyerId], Fraction]

    def net_outflow_terms(self) -> dict[BuyerId, tuple[int, int]]:
        """Payments minus receipts per buyer named in the matrix, as an
        integer numerator over a positive common denominator (not reduced),
        keyed in order of first appearance (payer before payee within an
        entry).

        Numerators are summed per denominator first; a fair split has a few
        distinct denominators, so only a buyer paid over several of them is
        brought to a common one, their least common multiple.
        """
        by_den: dict[int, dict[BuyerId, int]] = {}
        terms: dict[BuyerId, tuple[int, int] | None] = {}
        for (payer, payee), amount in self.entries.items():
            d = amount.denominator
            nums = by_den.get(d)
            if nums is None:
                nums = by_den[d] = {}
            n = amount.numerator
            nums[payer] = nums.get(payer, 0) + n
            nums[payee] = nums.get(payee, 0) - n
            terms[payer] = None
            terms[payee] = None
        for d, nums in by_den.items():
            for b, n in nums.items():
                old = terms[b]
                if old is None:
                    terms[b] = (n, d)
                else:
                    m, e = old
                    g = gcd(e, d)
                    terms[b] = (m * (d // g) + n * (e // g), e // g * d)
        return terms


@dataclass(frozen=True)
class PriceEntry:
    market_price: Money
    delta: Fraction
    final: Fraction


@dataclass(frozen=True, eq=False)
class PriceVector:
    entries: Mapping[BuyerId, PriceEntry]


def group_transfer_network(gp: GroupPartition) -> FlowNetwork:
    """Three-layer network whose feasible flows are exactly the rational
    group transfers: source -> choice groups -> vendors -> sink.

    The source is node 0, then come the negative groups in sorted order,
    then the vendors in sorted id order, then the sink."""
    groups = sorted(gp.negative_groups)
    vendor_ids = sorted(
        {s for x in groups for s in x}
        | {s for s, total in gp.positive_totals.items() if total > 0}
    )
    vendor_node = {s: 1 + len(groups) + i for i, s in enumerate(vendor_ids)}
    sink = 1 + len(groups) + len(vendor_ids)
    edges = [Edge(0, 1 + i, gp.negative_totals[x]) for i, x in enumerate(groups)]
    for i, x in enumerate(groups):
        for s in x:
            edges.append(Edge(1 + i, vendor_node[s], gp.negative_totals[x], 0, (s, x)))
    for s, node in vendor_node.items():
        edges.append(Edge(node, sink, gp.positive_totals.get(s, 0)))
    return FlowNetwork(sink + 1, 0, sink, tuple(edges))


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
    offers: Iterable[tuple[BuyerId, int]],
    requests: Iterable[tuple[BuyerId, int]],
) -> dict[tuple[BuyerId, BuyerId], int]:
    """Two-pointer matching of integer amounts: each offer is spent in order
    until the current request is met, leaving at most offers+requests-1
    nonzero transfers."""
    offers = list(offers)
    requests = list(requests)
    if any(a < 0 for _, a in offers) or any(a < 0 for _, a in requests):
        raise ValueError("amounts must be nonnegative")
    offered = sum(a for _, a in offers)
    requested = sum(a for _, a in requests)
    if offered != requested:
        raise SumMismatch(f"offered {offered} != requested {requested}")

    result: dict[tuple[BuyerId, BuyerId], int] = {}
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
        # A payer sits in one positive group and a payee in one negative
        # group, so each pair is matched under exactly one (s, x).  Equal
        # surpluses match equal amounts, so each distinct amount is divided
        # by P·Q once.
        pq = p * q
        shares: dict[int, Fraction] = {}
        for pair, paid in greedy_match(offers, requests).items():
            share = shares.get(paid)
            if share is None:
                share = shares[paid] = Fraction(paid, pq)
            entries[pair] = share
    return TransferMatrix(entries=entries)


def prices_from_transfers(
    market: Market, alloc: Allocation, matrix: TransferMatrix
) -> PriceVector:
    """Fold pairwise transfers into each buyer's final price: her market
    price under ``alloc`` plus her net outflow.

    Reads ``matrix.net_outflow_terms()``.  Buyers with the same market price
    and the same outflow terms share one ``PriceEntry``, so each distinct
    delta and final price is built once per call.  A transfer naming a
    buyer outside the market raises ``ValueError`` before ``alloc`` is
    priced.
    """
    flows = matrix.net_outflow_terms()
    known = set(market.buyer_ids)
    for b in flows:
        if b not in known:
            raise ValueError(f"transfer references unknown buyer {b!r}")
    no_flow = (0, 1)
    made: dict[tuple[Money, int, int], PriceEntry] = {}
    entries: dict[BuyerId, PriceEntry] = {}
    for b, base in market_prices(market, alloc).items():
        n, d = flows.get(b, no_flow)
        entry = made.get((base, n, d))
        if entry is None:
            delta = Fraction(n, d)
            q = delta.denominator
            final = Fraction(base * q + delta.numerator, q)
            entry = made[(base, n, d)] = PriceEntry(base, delta, final)
        entries[b] = entry
    return PriceVector(entries=entries)
