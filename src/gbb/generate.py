"""Seeded random instance generation.

The generator is the definition of its own output: identical parameters
always produce identical markets (and therefore identical document bytes).
Full-bundle valuations are emphasized so that discounts matter in a decent
share of generated instances.
"""

from __future__ import annotations

import random

from .model import (
    Buyer,
    DiscountTier,
    ITEM_TYPES_LIMIT,
    MONEY_LIMIT,
    Market,
    Money,
    NULL_VENDOR,
    Vendor,
    VendorTuple,
)


def generate_instance(
    buyers: int, vendors: int, items: int, seed: int, max_value: int = 20
) -> Market:
    # A bundle price stays below the sum of ``items`` base prices, each at
    # most ``max_value``, so this bound keeps every amount writable.
    if (
        buyers < 0
        or vendors < 1
        or not 1 <= items <= ITEM_TYPES_LIMIT
        or max_value < 1
        or items * max_value >= MONEY_LIMIT
    ):
        raise ValueError(
            f"need buyers >= 0, vendors >= 1, 1 <= items <= {ITEM_TYPES_LIMIT}, "
            f"max_value >= 1, items * max_value < {MONEY_LIMIT}"
        )
    rng = random.Random(seed)

    vendor_list: list[Vendor] = []
    for v in range(1, vendors + 1):
        base = tuple(rng.randint(1, max_value) for _ in range(items))
        vendor_list.append(
            Vendor(id=f"s{v}", base_prices=base, tiers=_random_tiers(rng, base, buyers))
        )

    vendor_ids = [v.id for v in vendor_list]
    choices_with_null = vendor_ids + [NULL_VENDOR]
    buyer_list: list[Buyer] = []
    for b in range(1, buyers + 1):
        valuations: dict[VendorTuple, Money] = {}
        for vid in vendor_ids:
            if rng.random() < 0.85:
                valuations[(vid,) * items] = rng.randint(1, max_value)
        if rng.random() < 0.4:
            mixed = tuple(rng.choice(choices_with_null) for _ in range(items))
            if any(vid != NULL_VENDOR for vid in mixed) and mixed not in valuations:
                valuations[mixed] = rng.randint(1, max_value)
        buyer_list.append(Buyer(id=f"b{b}", valuations=valuations))

    return Market.build(c=items, vendors=vendor_list, buyers=buyer_list)


def _random_tiers(
    rng: random.Random, base: tuple[Money, ...], buyers: int
) -> tuple[DiscountTier, ...]:
    base_sum = sum(base)
    if base_sum < 1:
        return ()
    items = len(base)
    # Thresholds stay at or below the buyer count so discounts are reachable
    # (with no buyers they sit at 1, valid but inert).
    hi = max(1, (buyers + 1) // 2)
    first = tuple(rng.randint(1, hi) for _ in range(items))
    first_price = rng.randint(max(0, base_sum // 2), base_sum - 1)
    tiers = [DiscountTier(thresholds=first, bundle_price=first_price)]
    if rng.randint(1, 2) == 2 and first_price > 0:
        cap = buyers if buyers > 0 else hi
        second = tuple(min(cap, t + rng.randint(0, 1)) for t in first)
        if sum(second) <= sum(first) and second[0] < cap:
            second = (second[0] + 1,) + second[1:]
        # Every first threshold is at most ``hi <= cap``, so ``second`` is
        # componentwise at least ``first``.
        if sum(second) > sum(first):
            tiers.append(
                DiscountTier(
                    thresholds=second,
                    bundle_price=rng.randint(0, first_price - 1),
                )
            )
    return tuple(tiers)
