"""Domain model: prices, utilities, surpluses, groups."""

import itertools
import random
from collections import Counter

import pytest

from gbb.generate import generate_instance
from gbb.model import (
    Allocation,
    Buyer,
    DiscountTier,
    GroupPartition,
    Market,
    NULL_VENDOR,
    Vendor,
    all_surpluses,
    best_alternatives,
    cell_prices,
    group_partition,
    market_price_of_choice,
    market_prices,
    triggered_tiers,
    validate_market,
)
from gbb.swm import solve_swm, total_price

MU_A = Allocation({"b1": ("s1", "s1"), "b2": ("s1", "s1")})
MU_STAR = Allocation(
    {"b1": ("s1", "s1"), "b2": ("s1", "s1"), "b3": ("s1", "s2")}
)


def welfare(market, alloc):
    return sum(group_partition(market, alloc).utility.values())


def exhaustive_best_welfare(market):
    """Independent oracle: max social welfare over every allocation."""
    cells = market.vendor_tuples
    ids = [b.id for b in market.buyers]
    best = None
    for combo in itertools.product(cells, repeat=len(ids)):
        sw = welfare(market, Allocation(dict(zip(ids, combo))))
        if best is None or sw > best:
            best = sw
    return best


def test_validate_fixtures_pass(fix_e1, fix_e2):
    assert validate_market(fix_e1).ok
    assert validate_market(fix_e2).ok


def test_validate_rejects_nondecreasing_bundle_prices():
    market = Market.build(
        c=2,
        vendors=[
            Vendor(
                "s1",
                (4, 4),
                (DiscountTier((2, 2), 5), DiscountTier((3, 3), 6)),
            )
        ],
        buyers=[],
    )
    report = validate_market(market)
    assert not report.ok
    assert any("not strictly below" in v for v in report.violations)


def test_validate_rejects_discount_at_or_above_base_sum():
    market = Market.build(
        c=2,
        vendors=[Vendor("s1", (4, 4), (DiscountTier((2, 2), 9),))],
        buyers=[],
    )
    assert not validate_market(market).ok


def test_validate_catches_duplicates_arity_and_negative_values():
    market = Market.build(
        c=2,
        vendors=[Vendor("s1", (4, -1)), Vendor("s1", (3, 3))],
        buyers=[
            Buyer("b1", {("s1",): 4}),
            Buyer("b1", {("s1", "zz"): 3, ("s1", "s1"): -2}),
            Buyer("b2", {(NULL_VENDOR, NULL_VENDOR): 5}),
        ],
    )
    text = "\n".join(validate_market(market).violations)
    assert "duplicate vendor id" in text
    assert "duplicate buyer id" in text
    assert "negative base price" in text
    assert "arity" in text
    assert "unknown vendor" in text
    assert "negative valuation" in text
    assert "all-null choice" in text


def test_validate_rejects_threshold_regressions():
    market = Market.build(
        c=2,
        vendors=[
            Vendor(
                "s1",
                (5, 5),
                (DiscountTier((2, 2), 8), DiscountTier((1, 4), 7)),
            )
        ],
        buyers=[],
    )
    text = "\n".join(validate_market(market).violations)
    assert "componentwise" in text


def test_validate_null_vendor_prices_and_tiers_and_negative_thresholds():
    market = Market.build(
        c=2,
        vendors=[
            Vendor(NULL_VENDOR, (0, 1), (DiscountTier((1, 1), 0),)),
            Vendor("s1", (5, 5), (DiscountTier((-1, 3), 8),)),
        ],
        buyers=[],
    )
    assert validate_market(market).violations == (
        "null vendor must have all-zero base prices",
        "null vendor must not offer discounts",
        "vendor 's1' tier 1: negative threshold",
        "vendor 's1' tier 1: thresholds not componentwise nondecreasing",
    )


def test_demand_vectors(fix_e1, fix_e2):
    # MU_A's demand (2, 2) meets s1's tier (2, 2); MU_STAR's (3, 2) does too
    assert cell_prices(fix_e1, {("s1", "s1"): 2}) == {("s1", "s1"): 5}
    assert cell_prices(fix_e1, {("s1", "s1"): 1}) == {("s1", "s1"): 8}
    assert cell_prices(fix_e2, {("s1", "s1"): 2, ("s1", "s2"): 1}) == {
        ("s1", "s1"): 4,
        ("s1", "s2"): 7,
    }
    assert cell_prices(fix_e2, {("s1", "s1"): 1, ("s1", "s2"): 1})[("s1", "s1")] == 8


def test_market_adds_the_null_vendor_and_orders_by_id():
    s1, s2 = Vendor("s1", (1,)), Vendor("s2", (2,))
    b2, b10 = Buyer("b2", {}), Buyer("b10", {})
    market = Market(1, (s2, s1), (b2, b10))
    assert [v.id for v in market.vendors] == [NULL_VENDOR, "s1", "s2"]
    assert market.vendor(NULL_VENDOR).base_prices == (0,)
    assert market.buyers == (b10, b2)
    assert market.vendor_tuples == ((NULL_VENDOR,), ("s1",), ("s2",))


def test_demand_vectors_empty_market():
    market = Market.build(c=2, vendors=[Vendor("s1", (1, 1))], buyers=[])
    assert market_prices(market, Allocation({})) == {}
    assert cell_prices(market, {}) == {}


def test_demand_vectors_rejects_unknown_vendor(fix_e1):
    alloc = Allocation({"b1": ("s1", "zz"), "b2": ("s1", "s1")})
    with pytest.raises(ValueError, match="unknown vendor id 'zz' in allocation"):
        market_prices(fix_e1, alloc)
    # the first unknown vendor in buyer order is named
    alloc = Allocation({"b1": ("s1", "yy"), "b2": ("xx", "s1")})
    with pytest.raises(ValueError, match="unknown vendor id 'yy' in allocation"):
        market_prices(fix_e1, alloc)


def test_market_prices_check_every_choice_before_pricing(fix_e1):
    # a missing buyer or a wrong arity wins over an earlier unknown vendor
    with pytest.raises(ValueError, match="allocation is missing buyer 'b2'"):
        market_prices(fix_e1, Allocation({"b1": ("s1", "zz")}))
    with pytest.raises(ValueError, match=r"buyer 'b1': choice arity 1 != 2"):
        market_prices(fix_e1, Allocation({"b1": ("zz",), "b2": ("s1", "s1")}))


def _one_tier_market(thresholds):
    return Market.build(
        c=2, vendors=[Vendor("s1", (4, 4), (DiscountTier(thresholds, 5),))], buyers=[]
    )


def test_cell_prices_add_counts_of_different_choices():
    market = _one_tier_market((2, 1))
    bundle, half = ("s1", "s1"), ("s1", NULL_VENDOR)
    # (s1, s1) and (s1, null) together bring s1 demand (2, 1)
    assert cell_prices(market, {bundle: 1, half: 1}) == {bundle: 5, half: 4}
    assert cell_prices(market, {bundle: 1}) == {bundle: 8}
    assert cell_prices(market, {bundle: 1, half: 0}) == {bundle: 8, half: 4}


def test_cell_prices_of_zero_counts_are_base_prices(fix_e1, fix_e2):
    for market in (fix_e1, fix_e2, _one_tier_market((1, 1))):
        cells = market.vendor_tuples
        assert cell_prices(market, dict.fromkeys(cells, 0)) == {
            choice: market.base_price(choice) for choice in cells
        }


def test_cell_prices_reject_bad_choices(fix_e1):
    with pytest.raises(ValueError, match="unknown vendor id 'zz' in allocation"):
        cell_prices(fix_e1, {("s1", "s1"): 2, ("zz", "s1"): 1})
    for bad in (("s1",), ("s1", "s1", "s1")):
        with pytest.raises(ValueError, match=f"has arity {len(bad)}, expected 2"):
            cell_prices(fix_e1, {("s1", "s1"): 2, bad: 1})


def test_cell_prices_take_any_count_mapping(fix_e2):
    chosen = [("s1", "s1"), ("s1", "s2"), ("s1", "s1"), ("s2", "s2")]
    counts = Counter(chosen)
    assert cell_prices(fix_e2, counts) == cell_prices(fix_e2, dict(counts))
    assert cell_prices(fix_e2, counts) == {
        ("s1", "s1"): 4,
        ("s1", "s2"): 7,
        ("s2", "s2"): 6,
    }


def test_triggered(fix_e1, fix_e2):
    assert triggered_tiers(fix_e1, reference_demand_vectors(fix_e1, MU_A)) == {
        "s1": 1,
        "s2": 0,
        NULL_VENDOR: 0,
    }
    assert triggered_tiers(fix_e2, reference_demand_vectors(fix_e2, MU_STAR))["s1"] == 1


def test_triggered_needs_every_component():
    market = Market.build(
        c=2,
        vendors=[
            Vendor("s1", (4, 4), (DiscountTier((2, 2), 5),)),
        ],
        buyers=[
            Buyer("b1", {("s1", "s1"): 9}),
            Buyer("b2", {("s1", NULL_VENDOR): 5}),
        ],
    )
    alloc = Allocation({"b1": ("s1", "s1"), "b2": ("s1", NULL_VENDOR)})
    # demand (2, 1) misses threshold (2, 2) on the second component
    assert reference_demand_vectors(market, alloc)["s1"] == (2, 1)
    assert market_prices(market, alloc) == {"b1": 8, "b2": 4}


def test_buyer_market_price(fix_e1, fix_e2):
    assert market_prices(fix_e1, MU_A)["b1"] == 5
    assert market_prices(fix_e2, MU_STAR)["b3"] == 7
    alloc = Allocation(
        {
            "b1": (NULL_VENDOR, NULL_VENDOR),
            "b2": (NULL_VENDOR, NULL_VENDOR),
            "b3": (NULL_VENDOR, NULL_VENDOR),
        }
    )
    assert market_prices(fix_e2, alloc)["b1"] == 0


def test_utility_and_social_welfare(fix_e1, fix_e2):
    # oracle first: exhaustive enumeration pins the optimum
    assert exhaustive_best_welfare(fix_e1) == 6
    assert exhaustive_best_welfare(fix_e2) == 9

    assert group_partition(fix_e1, MU_A).utility == {"b1": 5, "b2": 1}
    assert welfare(fix_e1, MU_A) == 6
    assert welfare(fix_e2, MU_STAR) == 9

    all_null = Allocation(
        {b.id: (NULL_VENDOR,) * 2 for b in fix_e1.buyers}
    )
    assert welfare(fix_e1, all_null) == 0


def test_best_alternative(fix_e1):
    assert best_alternatives(fix_e1) == {
        "b1": (("s1", "s1"), 2),
        "b2": (("s2", "s2"), 2),
    }


def test_best_alternative_null_floor():
    market = Market.build(
        c=2,
        vendors=[Vendor("s1", (5, 5))],
        buyers=[Buyer("b1", {("s1", "s1"): 3})],
    )
    choice, value = best_alternatives(market)["b1"]
    assert value == 0
    assert choice == (NULL_VENDOR, NULL_VENDOR)


def test_best_alternative_ties_go_to_the_smallest_tuple():
    market = Market.build(
        c=2,
        vendors=[Vendor("s2", (3, 3)), Vendor("s1", (5, 5))],
        buyers=[Buyer("b1", {("s2", "s2"): 8, ("s1", "s1"): 12})],
    )
    assert best_alternatives(market) == {"b1": (("s1", "s1"), 2)}


def test_surplus(fix_e1, fix_e2):
    assert all_surpluses(fix_e1, MU_A) == {"b1": 3, "b2": -1}
    assert all_surpluses(fix_e2, MU_STAR) == {"b1": 4, "b2": 4, "b3": -2}


def test_surplus_zero_when_choice_is_best_alternative(fix_e1):
    alloc = Allocation({"b1": ("s1", "s1"), "b2": ("s2", "s2")})
    # no discount triggers, so b2 sits exactly at her best alternative
    assert market_prices(fix_e1, alloc)["b1"] == 8
    assert all_surpluses(fix_e1, alloc)["b2"] == 0


def test_group_partition(fix_e1, fix_e2):
    gp = group_partition(fix_e1, MU_A)
    assert gp.positive_groups == {"s1": ("b1",)}
    assert gp.positive_totals == {"s1": 3}
    assert gp.negative_groups == {("s1",): ("b2",)}
    assert gp.negative_totals == {("s1",): 1}

    gp2 = group_partition(fix_e2, MU_STAR)
    assert gp2.positive_groups == {"s1": ("b1", "b2")}
    assert gp2.positive_totals == {"s1": 8}
    assert gp2.negative_groups == {("s1", "s2"): ("b3",)}
    assert gp2.negative_totals == {("s1", "s2"): 2}


def test_group_partition_totals_match_surpluses(fix_e2):
    gp = group_partition(fix_e2, MU_STAR)
    for s, members in gp.positive_groups.items():
        assert gp.positive_totals[s] == sum(gp.surplus[b] for b in members)
    for x, members in gp.negative_groups.items():
        assert gp.negative_totals[x] == -sum(gp.surplus[b] for b in members)


def test_group_partition_no_discount_no_negative_groups(fix_e1):
    # welfare-maximal allocation of the discount-free variant
    market = Market.build(
        c=2,
        vendors=[Vendor("s1", (4, 4)), Vendor("s2", (3, 3))],
        buyers=list(fix_e1.buyers),
    )
    alloc = Allocation({"b1": ("s1", "s1"), "b2": ("s2", "s2")})
    assert exhaustive_best_welfare(market) == welfare(market, alloc)
    gp = group_partition(market, alloc)
    assert gp.negative_groups == {}
    assert gp.positive_groups == {}


def _random_allocation(rng, market):
    cells = market.vendor_tuples
    return Allocation({b.id: rng.choice(cells) for b in market.buyers})


def test_nonbundle_buyers_never_have_positive_surplus():
    rng = random.Random(12)
    for trial in range(25):
        market = generate_instance(
            buyers=rng.randint(1, 4),
            vendors=rng.randint(1, 2),
            items=rng.randint(1, 2),
            seed=100 + trial,
            max_value=15,
        )
        alloc = _random_allocation(rng, market)
        trig = triggered_tiers(market, reference_demand_vectors(market, alloc))
        sigma = all_surpluses(market, alloc)
        for buyer in market.buyers:
            choice = alloc.choice[buyer.id]
            bundled = (
                all(v == choice[0] for v in choice)
                and trig.get(choice[0], 0) > 0
            )
            if not bundled:
                assert sigma[buyer.id] <= 0


def test_demand_monotone_in_group_membership(fix_e1):
    before = reference_demand_vectors(
        fix_e1, Allocation({"b1": ("s1", "s1"), "b2": ("s2", "s2")})
    )
    after = reference_demand_vectors(fix_e1, MU_A)
    assert all(a >= b for a, b in zip(after["s1"], before["s1"]))


def test_market_price_of_choice_rejects_unknown_vendor(fix_e1):
    trig = triggered_tiers(fix_e1, reference_demand_vectors(fix_e1, MU_A))
    assert market_price_of_choice(fix_e1, ("s1", "s2"), trig) == 7
    with pytest.raises(ValueError, match="unknown vendor id 'zz'"):
        market_price_of_choice(fix_e1, ("s1", "zz"), trig)
    # ("s1",) and ("s1",) * 3 name only the triggered s1, yet are no bundle
    for bad in (("s1",), ("s2",), ("s1", "s1", "s1"), ("s2", "s1", "s1"), ()):
        with pytest.raises(ValueError, match=f"has arity {len(bad)}, expected 2"):
            market_price_of_choice(fix_e1, bad, trig)


def test_base_price_builds_no_other_tuple(fix_e1):
    cells = fix_e1.vendor_tuples
    assert fix_e1.base_price(("s1", "zz")) is None
    assert fix_e1.base_price(("s1",)) is None
    assert fix_e1.base_price(("s1", "s1", "s1")) is None
    fresh = Market.build(c=fix_e1.c, vendors=list(fix_e1.vendors), buyers=[])
    for choice in cells:
        expected = sum(fix_e1.vendor(v).base_prices[k] for k, v in enumerate(choice))
        assert fresh.base_price(choice) == expected
    assert "vendor_tuples" not in vars(fresh)


# --- per-buyer reference pricing ----------------------------------------------
# The pricing bodies as they were before one market-price pass served every
# caller: each per-buyer function re-derives the whole allocation's demand,
# and the partition price folds its own demand.


def reference_demand_vectors(market, alloc):
    counts = {v.id: [0] * market.c for v in market.vendors}
    for buyer in market.buyers:
        for k, vid in enumerate(alloc.choice[buyer.id]):
            counts[vid][k] += 1
    return {vid: tuple(c) for vid, c in counts.items()}


def reference_buyer_market_price(market, alloc, buyer_id):
    trig = triggered_tiers(market, reference_demand_vectors(market, alloc))
    return market_price_of_choice(market, alloc.choice[buyer_id], trig)


def reference_utility(market, alloc, buyer_id):
    (buyer,) = [b for b in market.buyers if b.id == buyer_id]
    choice = alloc.choice[buyer_id]
    return buyer.valuation(choice) - reference_buyer_market_price(
        market, alloc, buyer_id
    )


def reference_surplus(market, alloc, buyer_id):
    return reference_utility(market, alloc, buyer_id) - full_scan_best_alternative(
        market, buyer_id
    )[1]


def reference_group_partition(market, alloc):
    trig = triggered_tiers(market, reference_demand_vectors(market, alloc))
    sigma = {b.id: reference_surplus(market, alloc, b.id) for b in market.buyers}
    positive, negative = {}, {}
    for buyer in market.buyers:
        choice = alloc.choice[buyer.id]
        sb = sigma[buyer.id]
        if sb > 0:
            first = choice[0]
            if all(vid == first for vid in choice) and trig.get(first, 0) > 0:
                positive.setdefault(first, []).append(buyer.id)
        elif sb < 0:
            negative.setdefault(tuple(sorted(set(choice))), []).append(buyer.id)
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
        market_price={
            b.id: reference_buyer_market_price(market, alloc, b.id)
            for b in market.buyers
        },
        utility={b.id: reference_utility(market, alloc, b.id) for b in market.buyers},
        surplus=sigma,
    )


def reference_total_price(market, counts):
    cells = list(zip(market.vendor_tuples, counts))
    demand = {v.id: [0] * market.c for v in market.vendors}
    for choice, n in cells:
        for k, vid in enumerate(choice):
            demand[vid][k] += n
    trig = triggered_tiers(market, {vid: tuple(d) for vid, d in demand.items()})
    total = 0
    for choice, n in cells:
        if n:
            total += n * market_price_of_choice(market, choice, trig)
    return total


def test_pricing_agrees_with_per_buyer_reference():
    rng = random.Random(808)
    positive_groups = 0
    for trial in range(200):
        market = generate_instance(
            buyers=rng.randint(1, 5),
            vendors=rng.randint(1, 2),
            items=rng.randint(1, 2),
            seed=8000 + trial,
            max_value=rng.choice((6, 15)),
        )
        for alloc in (solve_swm(market).allocation, _random_allocation(rng, market)):
            ids = market.buyer_ids
            assert market_prices(market, alloc) == {
                b: reference_buyer_market_price(market, alloc, b) for b in ids
            }
            assert all_surpluses(market, alloc) == {
                b: reference_surplus(market, alloc, b) for b in ids
            }

            cells = market.vendor_tuples
            chosen = list(alloc.choice.values())
            counts = tuple(chosen.count(cell) for cell in cells)
            assert total_price(market, counts) == reference_total_price(market, counts)

            gp = group_partition(market, alloc)
            ref = reference_group_partition(market, alloc)
            for field in (
                "positive_groups",
                "positive_totals",
                "negative_groups",
                "negative_totals",
                "market_price",
                "utility",
                "surplus",
            ):
                got, want = getattr(gp, field), getattr(ref, field)
                assert list(got.items()) == list(want.items()), (trial, field)
            positive_groups += bool(gp.positive_groups)
    assert positive_groups >= 50


def test_group_partition_derives_the_tiers_once(fix_e2, monkeypatch):
    import gbb.model

    calls = []
    triggered_tiers = gbb.model.triggered_tiers

    def counting(market, demand):
        calls.append(demand)
        return triggered_tiers(market, demand)

    monkeypatch.setattr(gbb.model, "triggered_tiers", counting)
    assert group_partition(fix_e2, MU_STAR).positive_groups == {"s1": ("b1", "b2")}
    assert len(calls) == 1


def full_scan_best_alternative(market, buyer_id):
    """Reference: every vendor tuple at base prices, the first maximum wins."""
    (buyer,) = [b for b in market.buyers if b.id == buyer_id]
    best = None
    for choice in market.vendor_tuples:
        value = buyer.valuation(choice) - market.base_price(choice)
        if best is None or value > best[1]:
            best = (choice, value)
    return best


def test_surpluses_take_the_best_alternative_from_valued_tuples():
    # best_alternatives reads each buyer's valued tuples only.  Ids sort on
    # both sides of "null" and base prices include 0, so unvalued tuples
    # tie the all-null floor and a smaller zero-price tuple can beat it.
    rng = random.Random(4242)
    for trial in range(600):
        c = rng.randint(1, 3)
        ids = rng.sample(["A", "kx", "nu", "s1", "z"], rng.randint(1, 3))
        vendors = [Vendor(vid, tuple(rng.randint(0, 3) for _ in range(c))) for vid in ids]
        cells = list(itertools.product(ids + [NULL_VENDOR], repeat=c))
        null_cell = (NULL_VENDOR,) * c
        buyers = []
        for b in range(rng.randint(1, 4)):
            valued = rng.sample(cells, rng.randint(0, min(4, len(cells))))
            buyers.append(
                Buyer(f"b{b}", {x: rng.randint(0, 9) for x in valued if x != null_cell})
            )
        market = Market.build(c=c, vendors=vendors, buyers=buyers)
        assert validate_market(market).ok
        assert best_alternatives(market) == {
            b: full_scan_best_alternative(market, b) for b in market.buyer_ids
        }, trial
        alloc = _random_allocation(rng, market)
        u = group_partition(market, alloc).utility
        assert all_surpluses(market, alloc) == {
            b: u[b] - full_scan_best_alternative(market, b)[1]
            for b in market.buyer_ids
        }, trial


def test_best_alternative_builds_no_vendor_tuple(monkeypatch):
    def unbuilt(market):
        raise AssertionError("vendor tuples built")

    monkeypatch.setattr(Market, "vendor_tuples", property(unbuilt))
    c = 64
    bundle = ("s1",) * c
    # "a" charges 0 for the even items and sorts before "null"
    free = tuple("a" if k % 2 == 0 else NULL_VENDOR for k in range(c))
    market = Market.build(
        c=c,
        vendors=[
            Vendor("a", tuple(k % 2 for k in range(c))),
            Vendor("s1", (1,) * c),
        ],
        buyers=[
            Buyer("b1", {bundle: 100}),
            Buyer("b2", {}),
            Buyer("b3", {bundle: c}),
            Buyer("b4", {bundle: 10}),
        ],
    )
    assert best_alternatives(market) == {
        "b1": (bundle, 100 - c),
        "b2": (free, 0),
        "b3": (free, 0),
        "b4": (free, 0),
    }
    alloc = Allocation({"b1": free, "b2": free, "b3": bundle, "b4": free})
    assert all_surpluses(market, alloc) == {"b1": -36, "b2": 0, "b3": 0, "b4": 0}
