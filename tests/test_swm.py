"""Partition enumeration and the welfare-maximizing solver."""

import dataclasses
import math
import random

import pytest

from gbb.generate import generate_instance
from gbb.model import (
    Allocation,
    Buyer,
    Market,
    NULL_VENDOR,
    Vendor,
    market_prices,
    social_welfare,
)
from gbb.swm import (
    BudgetExceeded,
    Partition,
    _PartitionSearch,
    assignment_network,
    best_allocation_for_partition,
    brute_force_swm,
    enumerate_partitions,
    partition_count,
    solve_swm,
    total_price,
)


def test_enumeration_order_two_cells():
    assert list(enumerate_partitions(2, 2)) == [(2, 0), (1, 1), (0, 2)]


def test_enumeration_zero_buyers():
    assert list(enumerate_partitions(0, 4)) == [(0, 0, 0, 0)]


def test_enumeration_count_and_uniqueness():
    seen = set(enumerate_partitions(4, 9))
    assert len(seen) == 495 == math.comb(12, 8)
    assert all(sum(c) == 4 for c in seen)


def test_enumeration_matches_binomial_grid():
    for n in range(0, 7):
        for cells in range(1, 10):
            produced = list(enumerate_partitions(n, cells))
            assert len(produced) == partition_count(n, cells)
            assert len(set(produced)) == len(produced)


def test_assignment_network_shape(fix_e1):
    net = assignment_network(fix_e1, Partition({("s1", "s1"): 2}))
    # source + 2 buyers + 9 tuples + sink
    assert net.node_count == 13
    source_edges = [e for e in net.edges if e.tail == net.source]
    middle_edges = [e for e in net.edges if e.tag is not None]
    sink_edges = [e for e in net.edges if e.head == net.sink]
    assert len(source_edges) == 2
    assert len(middle_edges) == 18
    assert len(sink_edges) == 9
    assert all(e.capacity == 1 and e.cost == 0 for e in source_edges)
    assert {e.capacity for e in sink_edges} == {0, 2}
    costs = {e.tag: e.cost for e in middle_edges}
    assert costs[("b1", ("s1", "s1"))] == -10
    assert costs[("b1", ("s1", "s2"))] == 0


def test_zero_capacity_cell_gets_no_buyers(fix_e1):
    part = Partition({("s1", "s1"): 1, ("s2", "s2"): 1})
    alloc, _ = best_allocation_for_partition(fix_e1, part)
    counts = {}
    for choice in alloc.choice.values():
        counts[choice] = counts.get(choice, 0) + 1
    assert counts == {("s1", "s1"): 1, ("s2", "s2"): 1}


def test_single_buyer_forced_assignment():
    market = Market.build(
        c=1, vendors=[Vendor("s1", (3,))], buyers=[Buyer("b1", {("s1",): 5})]
    )
    alloc, welfare = best_allocation_for_partition(
        market, Partition({("s1",): 1, (NULL_VENDOR,): 0})
    )
    assert alloc.choice == {"b1": ("s1",)}
    assert welfare == 2


def test_total_price(fix_e1):
    assert total_price(fix_e1, Partition({("s1", "s1"): 2})) == 10
    assert total_price(fix_e1, Partition({("s1", "s1"): 1, ("s2", "s2"): 1})) == 14
    assert total_price(fix_e1, Partition({(NULL_VENDOR, NULL_VENDOR): 2})) == 0


def test_total_price_constant_across_assignments(fix_e2):
    # any assignment matching the counts pays the same total
    part = Partition({("s1", "s1"): 2, ("s1", "s2"): 1})
    expected = total_price(fix_e2, part)
    ids = [b.id for b in fix_e2.buyers]
    slots = [("s1", "s1"), ("s1", "s1"), ("s1", "s2")]
    import itertools

    for perm in itertools.permutations(slots):
        alloc = Allocation(dict(zip(ids, perm)))
        paid = sum(market_prices(fix_e2, alloc).values())
        assert paid == expected


def test_best_allocation_for_partition_welfare(fix_e1, fix_e2):
    assert best_allocation_for_partition(fix_e1, Partition({("s1", "s1"): 2}))[1] == 6
    assert (
        best_allocation_for_partition(
            fix_e2, Partition({("s1", "s1"): 2, ("s1", "s2"): 1})
        )[1]
        == 9
    )
    assert (
        best_allocation_for_partition(fix_e2, Partition({("s1", "s1"): 3}))[1] == 6
    )


def test_solve_swm_fixtures(fix_e1, fix_e2):
    res1 = solve_swm(fix_e1)
    assert res1.social_welfare == 6
    assert dict(res1.allocation.choice) == {
        "b1": ("s1", "s1"),
        "b2": ("s1", "s1"),
    }
    assert res1.partitions_total == partition_count(2, 9)

    res2 = solve_swm(fix_e2)
    assert res2.social_welfare == 9
    assert dict(res2.allocation.choice) == {
        "b1": ("s1", "s1"),
        "b2": ("s1", "s1"),
        "b3": ("s1", "s2"),
    }


def test_solve_swm_all_valuations_below_prices():
    market = Market.build(
        c=2,
        vendors=[Vendor("s1", (9, 9))],
        buyers=[Buyer("b1", {("s1", "s1"): 2}), Buyer("b2", {("s1", "s1"): 1})],
    )
    res = solve_swm(market)
    assert res.social_welfare == 0
    assert all(
        choice == (NULL_VENDOR, NULL_VENDOR)
        for choice in res.allocation.choice.values()
    )


def test_no_partition_beats_the_solver(fix_e2):
    best = solve_swm(fix_e2)
    hit = 0
    for counts in enumerate_partitions(3, 9):
        part = Partition(dict(zip(fix_e2.vendor_tuples, counts)))
        _, welfare = best_allocation_for_partition(fix_e2, part)
        assert welfare <= best.social_welfare
        if welfare == best.social_welfare:
            hit += 1
    assert hit >= 1


def test_brute_force_fixtures(fix_e1, fix_e2):
    assert brute_force_swm(fix_e1)[1] == 6
    assert brute_force_swm(fix_e2)[1] == 9


def test_brute_force_indifference_case():
    market = Market.build(
        c=1,
        vendors=[Vendor("s1", (4,))],
        buyers=[Buyer("b1", {("s1",): 4})],
    )
    alloc, welfare = brute_force_swm(market)
    assert welfare == 0
    assert alloc.choice["b1"] in {("s1",), (NULL_VENDOR,)}


def test_budget_guards(fix_e2):
    with pytest.raises(BudgetExceeded) as exc:
        solve_swm(fix_e2, max_partitions=10)
    assert exc.value.needed == partition_count(3, 9)
    with pytest.raises(BudgetExceeded):
        brute_force_swm(fix_e2, max_allocations=10)


def test_solver_matches_oracle_on_random_instances():
    rng = random.Random(99)
    for trial in range(30):
        market = generate_instance(
            buyers=rng.randint(1, 4),
            vendors=rng.randint(1, 2),
            items=rng.randint(1, 2),
            seed=1000 + trial,
            max_value=12,
        )
        fast = solve_swm(market)
        _, slow = brute_force_swm(market)
        assert fast.social_welfare == slow
        assert social_welfare(market, fast.allocation) == slow


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # 32 vendors and 2 items make 1 024 cells, one search level each.
    market = generate_instance(buyers=1, vendors=31, items=2, seed=3)
    assert solve_swm(market).social_welfare == brute_force_swm(market)[1]


def test_solve_swm_empty_market():
    market = Market.build(c=2, vendors=[Vendor("s1", (2, 2))], buyers=[])
    res = solve_swm(market)
    assert res.social_welfare == 0
    assert res.allocation.choice == {}


def test_parallel_jobs_match_sequential(fix_e2):
    seq = solve_swm(fix_e2)
    par = solve_swm(fix_e2, jobs=2)
    assert par.social_welfare == seq.social_welfare
    assert dict(par.allocation.choice) == dict(seq.allocation.choice)
    assert par.partition.counts == seq.partition.counts


def test_progress_hook_reports_totals():
    market = generate_instance(buyers=4, vendors=2, items=2, seed=5, max_value=9)
    calls = []
    solve_swm(market, progress=lambda done, total: calls.append((done, total)))
    # 495 partitions, hook fires every 1000 evaluations: quiet run
    assert calls == []

    big = generate_instance(buyers=5, vendors=2, items=2, seed=5, max_value=9)
    solve_swm(big, progress=lambda done, total: calls.append((done, total)))
    assert calls == [(1000, partition_count(5, 9))]


def test_equal_welfare_ties_pick_lexicographically_smallest_partition():
    market = Market.build(
        c=1,
        vendors=[Vendor("s1", (5,)), Vendor("s2", (5,))],
        buyers=[Buyer("b1", {("s1",): 5, ("s2",): 5})],
    )
    # three partitions, all of welfare 0: at jobs=3 each sits in its own
    # slice, so the merge across slices must keep the tie rule too
    for jobs in (1, 2, 3):
        res = solve_swm(market, jobs=jobs)
        assert res.social_welfare == 0
        # cells sort as (null), (s1), (s2); counts (0, 0, 1) is the smallest
        assert res.partition.counts == {
            (NULL_VENDOR,): 0,
            ("s1",): 0,
            ("s2",): 1,
        }
        assert res.allocation.choice == {"b1": ("s2",)}


def test_demand_vector_components_sum_to_buyer_count():
    from gbb.model import demand_vectors

    rng = random.Random(6)
    for trial in range(10):
        market = generate_instance(
            buyers=rng.randint(1, 5),
            vendors=rng.randint(1, 2),
            items=rng.randint(1, 2),
            seed=500 + trial,
            max_value=9,
        )
        alloc = solve_swm(market).allocation
        demand = demand_vectors(market, alloc)
        for k in range(market.c):
            assert sum(d[k] for d in demand.values()) == len(market.buyers)


def test_bound_skips_most_flows():
    market = generate_instance(buyers=6, vendors=2, items=2, seed=2)
    for jobs in (1, 2):
        res = solve_swm(market, jobs=jobs)
        assert res.partitions_evaluated == res.partitions_total == 3003
        assert 1 <= res.flows_solved < res.partitions_total // 10
        assert res.flows_solved <= res.partitions_priced
        assert res.partitions_priced < res.partitions_total // 10


def _flat_reference(market):
    """Last welfare maximum over every partition, each solved by its flow."""
    best = None
    n, cells = len(market.buyers), len(market.vendor_tuples)
    for counts in enumerate_partitions(n, cells):
        part = Partition(dict(zip(market.vendor_tuples, counts)))
        alloc, welfare = best_allocation_for_partition(market, part)
        if best is None or welfare >= best[0]:
            best = (welfare, part, alloc)
    return best


def test_pruned_solver_picks_the_flat_enumerations_partition():
    # Small value ranges make equal-welfare partitions common, so this pins
    # the tie rule under pruning as well as the optimum.
    rng = random.Random(2024)
    checked = 0
    while checked < 150:
        n, m, c = rng.randint(0, 5), rng.randint(1, 3), rng.randint(1, 3)
        if partition_count(n, (m + 1) ** c) > 3000:
            continue
        market = generate_instance(
            buyers=n,
            vendors=m,
            items=c,
            seed=rng.randrange(10**6),
            max_value=rng.choice((2, 3, 6, 20)),
        )
        welfare, part, alloc = _flat_reference(market)
        # Slices of a 2- or 3-way split start and end inside subtrees.
        for jobs in (1, 2, 3):
            res = solve_swm(market, jobs=jobs)
            assert res.social_welfare == welfare
            assert res.partition.counts == part.counts
            assert res.allocation.choice == alloc.choice
        checked += 1


class _RecordingSearch(_PartitionSearch):
    """Records every leaf's price and never sets an incumbent, so that
    nothing is pruned and every composition is reached."""

    def __init__(self, market):
        super().__init__(market)
        self.leaves = []

    def _leaf(self, counts, price):
        self.leaves.append((tuple(counts), price))


def _with_random_tiers(rng, market):
    """The market with each vendor keeping 0, 1 or all of its tiers."""
    vendors = [
        dataclasses.replace(v, tiers=v.tiers[: rng.choice((0, 1, 2))])
        for v in market.vendors
    ]
    return Market.build(c=market.c, vendors=vendors, buyers=list(market.buyers))


def test_search_leaf_price_is_total_price_on_every_composition():
    rng = random.Random(31)
    tier_counts = set()
    checked = 0
    while checked < 100:
        n, m, c = rng.randint(0, 6), rng.randint(1, 3), rng.randint(1, 3)
        if partition_count(n, (m + 1) ** c) > 3000:
            continue
        market = _with_random_tiers(
            rng, generate_instance(buyers=n, vendors=m, items=c, seed=rng.randrange(10**6))
        )
        tier_counts.update(len(v.tiers) for v in market.real_vendors)
        search = _RecordingSearch(market)
        search.run(0, partition_count(n, len(market.vendor_tuples)))
        cells = market.vendor_tuples
        assert [counts for counts, _ in search.leaves] == list(
            enumerate_partitions(n, len(cells))
        )
        for counts, price in search.leaves:
            assert price == total_price(market, Partition(dict(zip(cells, counts))))
        checked += 1
    assert tier_counts == {0, 1, 2}
