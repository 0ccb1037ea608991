"""Domain model for group-buying markets with volume-triggered bundle discounts.

All money amounts are integer minor currency units (``Money``).  Exact
rational amounts only appear downstream, when group transfers are split
between individual buyers.  Discounts are triggered by demand volumes, so
``cell_prices`` prices any multiset of choices, an allocation's or a
partition's; ``group_partition`` prices an allocation once, keeping each
buyer's market price, utility and surplus.  It makes one pass over the
buyers and builds each distinct value once per call: a market price per
distinct choice, a base price per valued tuple and a negative-group key
per distinct choice.  No such table outlives its call.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

Money = int
VendorId = str
BuyerId = str
ItemType = int  # index in 0..c-1
VendorTuple = tuple[VendorId, ...]

#: Reserved vendor id meaning "do not buy this item type".  The null vendor
#: has zero prices and no reachable discount, and is always part of a market.
NULL_VENDOR: VendorId = "null"

#: Largest item-type count an instance document or the generator may give.
#: Past 64 item types a market with a real vendor has at least 2^65 cells,
#: beyond any enumeration, yet every buyer's choice in a solution document
#: still names one vendor per item type.
ITEM_TYPES_LIMIT = 2**10

#: Bound on the magnitude of every integer in an instance document, so
#: documents stay within signed 64-bit range; arithmetic is exact regardless.
MONEY_LIMIT = 2**63


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
    """A market: item-type count, vendors (null vendor included), buyers.

    Construction adds the null vendor when absent and stores vendors and
    buyers in id order, so no result depends on the order they came in.
    """

    c: int
    vendors: tuple[Vendor, ...]
    buyers: tuple[Buyer, ...]

    def __post_init__(self) -> None:
        vendors = list(self.vendors)
        if not any(v.id == NULL_VENDOR for v in vendors):
            vendors.append(null_vendor(self.c))
        for name, parts in (("vendors", vendors), ("buyers", self.buyers)):
            object.__setattr__(self, name, tuple(sorted(parts, key=lambda p: p.id)))

    @classmethod
    def build(cls, c: int, vendors: list[Vendor], buyers: list[Buyer]) -> "Market":
        """``Market(c, vendors, buyers)``, which adds the null vendor and
        orders by id."""
        return cls(c=c, vendors=tuple(vendors), buyers=tuple(buyers))

    @cached_property
    def _vendor_index(self) -> dict[VendorId, Vendor]:
        return {v.id: v for v in self.vendors}

    def vendor(self, vendor_id: VendorId) -> Vendor:
        try:
            return self._vendor_index[vendor_id]
        except KeyError:
            raise ValueError(f"unknown vendor id {vendor_id!r}") from None

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
        ids = [v.id for v in self.vendors]
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
    """Each buyer's market price, utility and surplus, and the buyers split
    by choice and surplus sign, with group totals.

    ``positive_groups[s]`` holds buyers taking the full discounted bundle
    from vendor ``s`` with positive surplus; ``negative_groups[x]`` holds
    buyers purchasing from exactly the vendor set ``x`` (sorted encoding)
    with negative surplus.  Zero-surplus buyers belong to no group, and
    each group lists its members in id order.
    """

    positive_groups: Mapping[VendorId, tuple[BuyerId, ...]]
    positive_totals: Mapping[VendorId, Money]
    negative_groups: Mapping[VendorTuple, tuple[BuyerId, ...]]
    negative_totals: Mapping[VendorTuple, Money]
    market_price: Mapping[BuyerId, Money]
    utility: Mapping[BuyerId, Money]
    surplus: Mapping[BuyerId, Money]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_market(market: Market) -> ValidationReport:
    """Check structural invariants; violations come back as report entries.
    The null vendor needs no check: ``Market`` always adds it."""
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


def triggered_tiers(
    market: Market, demand: Mapping[VendorId, Sequence[int]]
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


def cell_prices(
    market: Market, counts: Mapping[VendorTuple, int]
) -> dict[VendorTuple, Money]:
    """Market price of each choice in ``counts``, where ``counts[choice]``
    buyers take ``choice``.  Per-vendor demand is folded once, and every
    choice is priced at the tiers that demand triggers; a choice of the wrong
    arity raises ``ValueError`` there."""
    demand = {v.id: [0] * market.c for v in market.vendors}
    try:
        for choice, n in counts.items():
            for k, vid in zip(range(market.c), choice):
                demand[vid][k] += n
    except KeyError as exc:
        raise ValueError(f"unknown vendor id {exc.args[0]!r} in allocation") from None
    trig = triggered_tiers(market, demand)
    return {choice: market_price_of_choice(market, choice, trig) for choice in counts}


def _priced_choices(
    market: Market, alloc: Allocation
) -> tuple[list[VendorTuple], dict[VendorTuple, Money]]:
    """Each buyer's choice in ``market.buyer_ids`` order, and the market
    price of each distinct choice.

    The first buyer in id order that is missing or whose choice has the
    wrong arity raises; an unknown vendor then raises in ``cell_prices``.
    """
    c = market.c
    chosen = []
    for b in market.buyer_ids:
        try:
            choice = alloc.choice[b]
        except KeyError:
            raise ValueError(f"allocation is missing buyer {b!r}") from None
        if len(choice) != c:
            raise ValueError(f"buyer {b!r}: choice arity {len(choice)} != {c}")
        chosen.append(choice)
    return chosen, cell_prices(market, Counter(chosen))


def market_prices(market: Market, alloc: Allocation) -> dict[BuyerId, Money]:
    """Each buyer's market price under ``alloc``: the allocation is priced as
    the multiset of its choices."""
    chosen, price = _priced_choices(market, alloc)
    return dict(zip(market.buyer_ids, map(price.__getitem__, chosen)))


def best_alternatives(market: Market) -> dict[BuyerId, tuple[VendorTuple, Money]]:
    """Each buyer's best utility at base prices over every vendor tuple, with
    the tuple that gives it.

    Ties go to the lexicographically smallest tuple.  Only each buyer's
    valued tuples are scanned: any other tuple is worth at most 0 at base
    prices, and exactly 0 when all its vendors charge 0 for their item, so
    the smallest such tuple (all-null at worst) is the best one left.  Each
    valued tuple is priced once per call.
    """
    bases: dict[VendorTuple, Money | None] = {}
    best: dict[BuyerId, tuple[VendorTuple, Money]] = {}
    for buyer in market.buyers:
        best_choice, best_value = None, 0
        for choice, value in buyer.valuations.items():
            try:
                base = bases[choice]
            except KeyError:
                base = bases[choice] = market.base_price(choice)
            if base is None:
                continue
            value -= base
            if value > best_value or (
                value == best_value and (best_choice is None or choice < best_choice)
            ):
                best_choice, best_value = choice, value
        if best_value == 0:
            free = market._free_tuple
            if best_choice is None or free < best_choice:
                best_choice = free
        best[buyer.id] = best_choice, best_value
    return best


def all_surpluses(market: Market, alloc: Allocation) -> dict[BuyerId, Money]:
    """Each buyer's utility minus her best base-price alternative's."""
    return dict(group_partition(market, alloc).surplus)


def group_partition(market: Market, alloc: Allocation) -> GroupPartition:
    """Price ``alloc`` once and split buyers into positive bundle groups and
    negative choice groups, in one pass over the buyers in id order.

    Utility is valuation less market price, and surplus is utility less the
    best base-price alternative's.  A buyer paying base prices is worth at
    most her best alternative, so a positive surplus means a triggered full
    bundle from ``choice[0]``.  Market prices and negative-group keys are
    built once per distinct choice, and base prices once per valued tuple.
    """
    chosen, price_of = _priced_choices(market, alloc)
    alternative = best_alternatives(market)
    group_of: dict[VendorTuple, VendorTuple] = {}
    price: dict[BuyerId, Money] = {}
    utility: dict[BuyerId, Money] = {}
    sigma: dict[BuyerId, Money] = {}
    positive: dict[VendorId, list[BuyerId]] = {}
    negative: dict[VendorTuple, list[BuyerId]] = {}
    for buyer, choice in zip(market.buyers, chosen):
        b = buyer.id
        price[b] = p = price_of[choice]
        utility[b] = u = buyer.valuations.get(choice, 0) - p
        sigma[b] = sb = u - alternative[b][1]
        if sb > 0:
            positive.setdefault(choice[0], []).append(b)
        elif sb < 0:
            x = group_of.get(choice)
            if x is None:
                x = group_of[choice] = tuple(sorted(set(choice)))
            negative.setdefault(x, []).append(b)

    positive_sorted = {s: tuple(ids) for s, ids in sorted(positive.items())}
    negative_sorted = {x: tuple(ids) for x, ids in sorted(negative.items())}
    return GroupPartition(
        positive_groups=positive_sorted,
        positive_totals={
            s: sum(sigma[b] for b in ids) for s, ids in positive_sorted.items()
        },
        negative_groups=negative_sorted,
        negative_totals={
            x: -sum(sigma[b] for b in ids) for x, ids in negative_sorted.items()
        },
        market_price=price,
        utility=utility,
        surplus=sigma,
    )
