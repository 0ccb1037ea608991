"""Domain model for group-buying markets with volume-triggered bundle discounts.

All money amounts are integer minor currency units (``Money``).  Exact
rational amounts only appear downstream, when group transfers are split
between individual buyers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

Money = int
VendorId = str
BuyerId = str
ItemType = int  # index in 0..c-1
VendorTuple = tuple[VendorId, ...]

#: Reserved vendor id meaning "do not buy this item type".  The null vendor
#: has zero prices and no reachable discount, and is always part of a market.
NULL_VENDOR: VendorId = "null"


@dataclass(frozen=True)
class DiscountTier:
    """A demand threshold vector and the bundle price it unlocks."""

    thresholds: tuple[int, ...]
    bundle_price: Money


@dataclass(frozen=True)
class Vendor:
    id: VendorId
    base_prices: tuple[Money, ...]
    tiers: tuple[DiscountTier, ...] = ()

    @property
    def base_bundle_price(self) -> Money:
        return sum(self.base_prices)


def null_vendor(item_types: int) -> Vendor:
    return Vendor(id=NULL_VENDOR, base_prices=(0,) * item_types, tiers=())


@dataclass(frozen=True, eq=False)
class Buyer:
    """A buyer with sparse valuations over vendor tuples (absent means 0)."""

    id: BuyerId
    valuations: Mapping[VendorTuple, Money]

    def valuation(self, choice: VendorTuple) -> Money:
        return self.valuations.get(choice, 0)


@dataclass(frozen=True, eq=False)
class Market:
    """A market: item-type count, vendors (null vendor included), buyers."""

    c: int
    vendors: tuple[Vendor, ...]
    buyers: tuple[Buyer, ...]

    @classmethod
    def build(cls, c: int, vendors: list[Vendor], buyers: list[Buyer]) -> "Market":
        """Assemble a market, appending the null vendor when absent."""
        vs = list(vendors)
        if not any(v.id == NULL_VENDOR for v in vs):
            vs.append(null_vendor(c))
        return cls(c=c, vendors=tuple(vs), buyers=tuple(buyers))

    @cached_property
    def _vendor_index(self) -> dict[VendorId, Vendor]:
        return {v.id: v for v in self.vendors}

    def vendor(self, vendor_id: VendorId) -> Vendor:
        try:
            return self._vendor_index[vendor_id]
        except KeyError:
            raise ValueError(f"unknown vendor id {vendor_id!r}") from None

    @cached_property
    def _buyer_index(self) -> dict[BuyerId, Buyer]:
        return {b.id: b for b in self.buyers}

    def buyer(self, buyer_id: BuyerId) -> Buyer:
        try:
            return self._buyer_index[buyer_id]
        except KeyError:
            raise ValueError(f"unknown buyer id {buyer_id!r}") from None

    @cached_property
    def buyer_ids(self) -> tuple[BuyerId, ...]:
        return tuple(b.id for b in self.buyers)

    @cached_property
    def real_vendors(self) -> tuple[Vendor, ...]:
        return tuple(v for v in self.vendors if v.id != NULL_VENDOR)

    @property
    def cell_count(self) -> int:
        """``len(vendor_tuples)``, computed without building the tuples."""
        return len(self.vendors) ** self.c

    @cached_property
    def vendor_tuples(self) -> tuple[VendorTuple, ...]:
        """All vendor tuples of length c, in lexicographic id order."""
        ids = sorted(v.id for v in self.vendors)
        return tuple(itertools.product(ids, repeat=self.c))

    @cached_property
    def _free_tuple(self) -> VendorTuple:
        """The smallest tuple whose every vendor charges 0 for its item."""
        return tuple(
            min(v.id for v in self.vendors if v.base_prices[k] == 0)
            for k in range(self.c)
        )

    def base_price(self, choice: VendorTuple) -> Money | None:
        """Undiscounted price of ``choice``, or None when it names an unknown
        vendor or has the wrong arity; no other tuple is built."""
        if len(choice) != self.c:
            return None
        index = self._vendor_index
        total = 0
        for k, vid in enumerate(choice):
            vendor = index.get(vid)
            if vendor is None:
                return None
            total += vendor.base_prices[k]
        return total


@dataclass(frozen=True, eq=False)
class Allocation:
    """A total assignment of each buyer to a length-c vendor tuple."""

    choice: Mapping[BuyerId, VendorTuple]


@dataclass(frozen=True, eq=False)
class GroupPartition:
    """Buyers split by choice and surplus sign, with group totals.

    ``positive_groups[s]`` holds buyers taking the full discounted bundle
    from vendor ``s`` with positive surplus; ``negative_groups[x]`` holds
    buyers purchasing from exactly the vendor set ``x`` (sorted encoding)
    with negative surplus.  Zero-surplus buyers belong to no group.
    """

    positive_groups: Mapping[VendorId, tuple[BuyerId, ...]]
    positive_totals: Mapping[VendorId, Money]
    negative_groups: Mapping[VendorTuple, tuple[BuyerId, ...]]
    negative_totals: Mapping[VendorTuple, Money]
    surplus: Mapping[BuyerId, Money]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_market(market: Market) -> ValidationReport:
    """Check structural invariants; violations come back as report entries."""
    problems: list[str] = []

    seen_vendors: set[VendorId] = set()
    for vendor in market.vendors:
        if vendor.id in seen_vendors:
            problems.append(f"duplicate vendor id {vendor.id!r}")
        seen_vendors.add(vendor.id)
        if len(vendor.base_prices) != market.c:
            problems.append(
                f"vendor {vendor.id!r}: expected {market.c} base prices, "
                f"got {len(vendor.base_prices)}"
            )
            continue
        if any(p < 0 for p in vendor.base_prices):
            problems.append(f"vendor {vendor.id!r}: negative base price")
        if vendor.id == NULL_VENDOR:
            if any(p != 0 for p in vendor.base_prices):
                problems.append("null vendor must have all-zero base prices")
            if vendor.tiers:
                problems.append("null vendor must not offer discounts")
            continue
        problems.extend(_validate_tiers(market.c, vendor))

    if NULL_VENDOR not in seen_vendors:
        problems.append("market is missing the null vendor")

    seen_buyers: set[BuyerId] = set()
    for buyer in market.buyers:
        if buyer.id in seen_buyers:
            problems.append(f"duplicate buyer id {buyer.id!r}")
        seen_buyers.add(buyer.id)
        for choice, value in buyer.valuations.items():
            if len(choice) != market.c:
                problems.append(
                    f"buyer {buyer.id!r}: choice {choice!r} has arity "
                    f"{len(choice)}, expected {market.c}"
                )
                continue
            for vid in choice:
                if vid not in seen_vendors:
                    problems.append(
                        f"buyer {buyer.id!r}: unknown vendor {vid!r} in choice"
                    )
            if value < 0:
                problems.append(
                    f"buyer {buyer.id!r}: negative valuation for {choice!r}"
                )
            if all(vid == NULL_VENDOR for vid in choice) and value != 0:
                problems.append(
                    f"buyer {buyer.id!r}: the all-null choice must be worth 0"
                )

    return ValidationReport(violations=tuple(problems))


def _validate_tiers(c: int, vendor: Vendor) -> list[str]:
    problems: list[str] = []
    base_sum = vendor.base_bundle_price
    prev_thresholds = (0,) * c
    prev_price = base_sum
    for i, tier in enumerate(vendor.tiers, start=1):
        where = f"vendor {vendor.id!r} tier {i}"
        if len(tier.thresholds) != c:
            problems.append(f"{where}: threshold arity {len(tier.thresholds)} != {c}")
            continue
        if any(t < 0 for t in tier.thresholds):
            problems.append(f"{where}: negative threshold")
        if any(t < p for t, p in zip(tier.thresholds, prev_thresholds)):
            problems.append(f"{where}: thresholds not componentwise nondecreasing")
        if sum(tier.thresholds) <= sum(prev_thresholds):
            problems.append(f"{where}: threshold sum not strictly increasing")
        if tier.bundle_price < 0:
            problems.append(f"{where}: negative bundle price")
        if tier.bundle_price >= prev_price:
            problems.append(
                f"{where}: bundle price {tier.bundle_price} not strictly below "
                f"{prev_price}"
            )
        prev_thresholds = tier.thresholds
        prev_price = tier.bundle_price
    return problems


def _choice_of(market: Market, alloc: Allocation, buyer_id: BuyerId) -> VendorTuple:
    try:
        choice = alloc.choice[buyer_id]
    except KeyError:
        raise ValueError(f"allocation is missing buyer {buyer_id!r}") from None
    if len(choice) != market.c:
        raise ValueError(
            f"buyer {buyer_id!r}: choice arity {len(choice)} != {market.c}"
        )
    return choice


def cell_demand(
    market: Market, cells: Iterable[tuple[VendorTuple, int]]
) -> dict[VendorId, tuple[int, ...]]:
    """Per-vendor counts of buyers purchasing each item type from it, where
    each ``(choice, n)`` pair stands for ``n`` buyers purchasing ``choice``."""
    counts: dict[VendorId, list[int]] = {
        v.id: [0] * market.c for v in market.vendors
    }
    try:
        for choice, n in cells:
            for k, vid in enumerate(choice):
                counts[vid][k] += n
    except KeyError as exc:
        raise ValueError(f"unknown vendor id {exc.args[0]!r} in allocation") from None
    return {vid: tuple(c) for vid, c in counts.items()}


def demand_vectors(
    market: Market, alloc: Allocation
) -> dict[VendorId, tuple[int, ...]]:
    """Per-vendor counts of buyers purchasing each item type from it."""
    return cell_demand(
        market, ((_choice_of(market, alloc, b), 1) for b in market.buyer_ids)
    )


def triggered_tiers(
    market: Market, demand: Mapping[VendorId, tuple[int, ...]]
) -> dict[VendorId, int]:
    """Highest met tier index per vendor (1-based; 0 means no discount)."""
    result: dict[VendorId, int] = {}
    for vendor in market.vendors:
        n = demand.get(vendor.id, (0,) * market.c)
        best = 0
        for i, tier in enumerate(vendor.tiers, start=1):
            if all(nk >= tk for nk, tk in zip(n, tier.thresholds)):
                best = i
        result[vendor.id] = best
    return result


def triggered(market: Market, alloc: Allocation) -> dict[VendorId, int]:
    return triggered_tiers(market, demand_vectors(market, alloc))


def market_price_of_choice(
    market: Market, choice: VendorTuple, trig: Mapping[VendorId, int]
) -> Money:
    """Price a buyer faces for ``choice``: discounted bundle when the whole
    tuple is one triggered vendor, otherwise the sum of base prices."""
    if len(choice) == market.c and len(set(choice)) == 1:
        tier = trig.get(choice[0], 0)
        if tier > 0:
            return market.vendor(choice[0]).tiers[tier - 1].bundle_price
    base = market.base_price(choice)
    if base is None:
        for vid in choice:
            market.vendor(vid)  # raises ValueError naming an unknown vendor id
        raise ValueError(
            f"choice {choice!r} has arity {len(choice)}, expected {market.c}"
        )
    return base


def market_prices(market: Market, alloc: Allocation) -> dict[BuyerId, Money]:
    """Each buyer's market price under ``alloc``, from the tiers that the
    whole allocation's demand triggers.  Each distinct choice is priced once."""
    trig = triggered(market, alloc)
    priced: dict[VendorTuple, Money] = {}
    prices: dict[BuyerId, Money] = {}
    for b in market.buyer_ids:
        choice = alloc.choice[b]
        price = priced.get(choice)
        if price is None:
            price = priced[choice] = market_price_of_choice(market, choice, trig)
        prices[b] = price
    return prices


def utilities(
    market: Market,
    alloc: Allocation,
    prices: Mapping[BuyerId, Money] | None = None,
) -> dict[BuyerId, Money]:
    """Each buyer's valuation of her choice minus her market price.

    Given ``prices`` must be ``market_prices(market, alloc)``; without them
    they are derived here.
    """
    if prices is None:
        prices = market_prices(market, alloc)
    return {
        buyer.id: buyer.valuation(alloc.choice[buyer.id]) - prices[buyer.id]
        for buyer in market.buyers
    }


def best_alternative(market: Market, buyer_id: BuyerId) -> tuple[VendorTuple, Money]:
    """Best utility achievable at base prices over every vendor tuple.

    Ties go to the lexicographically smallest tuple.  Only the buyer's
    valued tuples are scanned: any other tuple is worth at most 0 at base
    prices, and exactly 0 when all its vendors charge 0 for their item, so
    the smallest such tuple (all-null at worst) is the best one left.
    """
    best_choice, best_value = None, 0
    for choice, value in market.buyer(buyer_id).valuations.items():
        base = market.base_price(choice)
        if base is None:
            continue
        value -= base
        if value > best_value or (
            value == best_value and (best_choice is None or choice < best_choice)
        ):
            best_choice, best_value = choice, value
    free = market._free_tuple
    if best_value == 0 and (best_choice is None or free < best_choice):
        best_choice = free
    return best_choice, best_value


def all_surpluses(market: Market, alloc: Allocation) -> dict[BuyerId, Money]:
    """Each buyer's utility minus her best base-price alternative's."""
    u = utilities(market, alloc)
    return {b: u[b] - best_alternative(market, b)[1] for b in market.buyer_ids}


def group_partition(market: Market, alloc: Allocation) -> GroupPartition:
    """Split buyers into positive bundle groups and negative choice groups.

    A buyer paying base prices is worth at most her best alternative, so a
    positive surplus means a triggered full bundle from ``choice[0]``.
    """
    sigma = all_surpluses(market, alloc)

    positive: dict[VendorId, list[BuyerId]] = {}
    negative: dict[VendorTuple, list[BuyerId]] = {}
    for b, sb in sigma.items():
        choice = alloc.choice[b]
        if sb > 0:
            positive.setdefault(choice[0], []).append(b)
        elif sb < 0:
            x = tuple(sorted(set(choice)))
            negative.setdefault(x, []).append(b)

    positive_sorted = {s: tuple(sorted(ids)) for s, ids in sorted(positive.items())}
    negative_sorted = {x: tuple(sorted(ids)) for x, ids in sorted(negative.items())}
    return GroupPartition(
        positive_groups=positive_sorted,
        positive_totals={
            s: sum(sigma[b] for b in ids) for s, ids in positive_sorted.items()
        },
        negative_groups=negative_sorted,
        negative_totals={
            x: -sum(sigma[b] for b in ids) for x, ids in negative_sorted.items()
        },
        surplus=sigma,
    )
