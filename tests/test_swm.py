"""Partition enumeration and the welfare-maximizing solver.

A partition is a tuple of per-cell buyer counts aligned with
``market.vendor_tuples``.  ``enumerate_partitions`` is the reference order
the search must follow; the other test modules import it from here.
"""

import dataclasses
import itertools
import math
import random

import pytest

from gbb.documents import instance_from_dict, instance_to_dict
from gbb.generate import generate_instance
from gbb.model import (
    Allocation,
    Buyer,
    DiscountTier,
    Market,
    NULL_VENDOR,
    Vendor,
    group_partition,
    market_prices,
    validate_market,
)
from gbb.swm import (
    BudgetExceeded,
    _AssignmentLayout,
    _PartitionSearch,
    brute_force_swm,
    partition_count,
    solve_swm,
    total_price,
)


def enumerate_partitions(n_buyers, cells):
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


def counts_of(market, by_cell):
    """The counts tuple of a ``{vendor tuple: count}`` dict."""
    return tuple(by_cell.get(cell, 0) for cell in market.vendor_tuples)


def partition_welfare(market, counts):
    """Best assignment matching ``counts`` and its welfare."""
    choice, value = _AssignmentLayout(market).solve(counts)
    return choice, value - total_price(market, counts)


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
    net = _AssignmentLayout(fix_e1).network(counts_of(fix_e1, {("s1", "s1"): 2}))
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
    # each cost is the largest valuation (b1's 10) less the buyer's own
    costs = {e.tag: e.cost for e in middle_edges}
    assert costs[("b1", ("s1", "s1"))] == 0
    assert costs[("b1", ("s1", "s2"))] == 10
    assert costs[("b2", ("s2", "s2"))] == 2


def test_zero_capacity_cell_gets_no_buyers(fix_e1):
    counts = counts_of(fix_e1, {("s1", "s1"): 1, ("s2", "s2"): 1})
    choice, _ = _AssignmentLayout(fix_e1).solve(counts)
    chosen = list(choice.values())
    assert counts_of(fix_e1, {cell: chosen.count(cell) for cell in chosen}) == counts


def test_single_buyer_forced_assignment():
    market = Market.build(
        c=1, vendors=[Vendor("s1", (3,))], buyers=[Buyer("b1", {("s1",): 5})]
    )
    choice, welfare = partition_welfare(
        market, counts_of(market, {("s1",): 1, (NULL_VENDOR,): 0})
    )
    assert choice == {"b1": ("s1",)}
    assert welfare == 2


def test_total_price(fix_e1):
    def price(by_cell):
        return total_price(fix_e1, counts_of(fix_e1, by_cell))

    assert price({("s1", "s1"): 2}) == 10
    assert price({("s1", "s1"): 1, ("s2", "s2"): 1}) == 14
    assert price({(NULL_VENDOR, NULL_VENDOR): 2}) == 0


def test_total_price_constant_across_assignments(fix_e2):
    # any assignment matching the counts pays the same total
    expected = total_price(
        fix_e2, counts_of(fix_e2, {("s1", "s1"): 2, ("s1", "s2"): 1})
    )
    ids = [b.id for b in fix_e2.buyers]
    slots = [("s1", "s1"), ("s1", "s1"), ("s1", "s2")]
    for perm in itertools.permutations(slots):
        alloc = Allocation(dict(zip(ids, perm)))
        paid = sum(market_prices(fix_e2, alloc).values())
        assert paid == expected


def test_best_allocation_for_partition_welfare(fix_e1, fix_e2):
    def welfare(market, by_cell):
        return partition_welfare(market, counts_of(market, by_cell))[1]

    assert welfare(fix_e1, {("s1", "s1"): 2}) == 6
    assert welfare(fix_e2, {("s1", "s1"): 2, ("s1", "s2"): 1}) == 9
    assert welfare(fix_e2, {("s1", "s1"): 3}) == 6


def test_solve_swm_fixtures(fix_e1, fix_e2):
    res1 = solve_swm(fix_e1)
    assert res1.social_welfare == 6
    assert dict(res1.allocation.choice) == {
        "b1": ("s1", "s1"),
        "b2": ("s1", "s1"),
    }
    assert res1.partitions_evaluated == partition_count(2, 9)

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
        _, welfare = partition_welfare(fix_e2, counts)
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


def test_caps_are_checked_before_the_cells_are_built(monkeypatch):
    def unbuilt(market):
        raise AssertionError("vendor tuples built before the cap check")

    monkeypatch.setattr(Market, "vendor_tuples", property(unbuilt))
    vendors = [Vendor("s1", (1,) * 64)]
    buyers = [Buyer("b1", {}), Buyer("b2", {})]
    market = Market.build(c=64, vendors=vendors, buyers=buyers)
    with pytest.raises(BudgetExceeded) as exc:
        solve_swm(market)
    assert exc.value.needed == partition_count(2, 2**64)
    with pytest.raises(BudgetExceeded) as exc:
        brute_force_swm(market)
    assert exc.value.needed == 2**128
    # Without buyers there is one partition, but still 2**64 cells.
    empty = Market.build(c=64, vendors=vendors, buyers=[])
    for solve in (solve_swm, brute_force_swm):
        with pytest.raises(BudgetExceeded, match="cells") as exc:
            solve(empty)
        assert exc.value.needed == 2**64


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
        gp = group_partition(market, fast.allocation)
        assert sum(gp.utility.values()) == slow


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # 32 vendors and 2 items make 1 024 cells, one search level each.
    market = generate_instance(buyers=1, vendors=31, items=2, seed=3)
    assert solve_swm(market).social_welfare == brute_force_swm(market)[1]


def test_solve_swm_empty_market():
    market = Market.build(c=2, vendors=[Vendor("s1", (2, 2))], buyers=[])
    res = solve_swm(market)
    assert res.social_welfare == 0
    assert res.allocation.choice == {}


def test_jobs_argument_is_deprecated_and_ignored(fix_e2):
    generated = generate_instance(buyers=6, vendors=2, items=2, seed=2)
    for market in (fix_e2, generated):
        one = solve_swm(market)
        with pytest.warns(DeprecationWarning, match="jobs"):
            two = solve_swm(market, jobs=2)
        assert two.social_welfare == one.social_welfare
        assert dict(two.allocation.choice) == dict(one.allocation.choice)
        assert two.flows_solved == one.flows_solved
        assert two.partitions_priced == one.partitions_priced


def test_progress_hook_reports_totals():
    market = generate_instance(buyers=4, vendors=2, items=2, seed=5, max_value=9)
    calls = []
    solve_swm(market, progress=lambda done, total: calls.append((done, total)))
    # 495 partitions, hook fires every 1000 evaluations: quiet run
    assert calls == []

    big = generate_instance(buyers=5, vendors=2, items=2, seed=5, max_value=9)
    solve_swm(big, progress=lambda done, total: calls.append((done, total)))
    assert calls == [(1000, partition_count(5, 9))]

    # Pruned subtrees advance by their leaf count, so the hook still fires
    # once per 1 000 of the 3 003 and 1 024 partitions.
    for args, partitions in (((6, 2, 2, 1), 3003), ((1, 31, 2, 3), 1024)):
        calls = []
        solve_swm(
            generate_instance(*args),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(m, partitions) for m in range(1000, partitions + 1, 1000)]


def test_search_counts_partitions_only_for_a_progress_hook(monkeypatch):
    # Without a hook, the cap check's count is the only one: no pruned
    # subtree pays for its leaf count.
    import gbb.swm

    calls = []
    counted = gbb.swm.partition_count

    def counting(n_buyers, cells):
        calls.append((n_buyers, cells))
        return counted(n_buyers, cells)

    monkeypatch.setattr(gbb.swm, "partition_count", counting)
    solve_swm(generate_instance(6, 2, 2, 1))
    assert calls == [(6, 9)]


@pytest.mark.parametrize("args", [(10, 2, 1, 1), (10, 2, 2, 14), (14, 1, 2, 6)])
def test_document_round_trip_keeps_the_solution(args):
    # The generator names buyers b1..b14, out of id order past b9; the
    # market orders them by id on construction, as its document does.
    market = generate_instance(*args)
    direct = solve_swm(market)
    read = solve_swm(instance_from_dict(instance_to_dict(market)))
    assert dict(direct.allocation.choice) == dict(read.allocation.choice)
    assert direct.social_welfare == read.social_welfare
    assert direct.partitions_priced == read.partitions_priced
    assert direct.flows_solved == read.flows_solved


def test_equal_welfare_ties_pick_lexicographically_smallest_partition():
    market = Market.build(
        c=1,
        vendors=[Vendor("s1", (5,)), Vendor("s2", (5,))],
        buyers=[Buyer("b1", {("s1",): 5, ("s2",): 5})],
    )
    # three partitions, all of welfare 0
    res = solve_swm(market)
    assert res.social_welfare == 0
    # cells sort as (null), (s1), (s2); counts (0, 0, 1) is the smallest
    assert res.allocation.choice == {"b1": ("s2",)}


def test_demand_vector_components_sum_to_buyer_count():
    from tests.test_model import reference_demand_vectors

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
        demand = reference_demand_vectors(market, alloc)
        for k in range(market.c):
            assert sum(d[k] for d in demand.values()) == len(market.buyers)


def test_bound_skips_most_flows():
    market = generate_instance(buyers=6, vendors=2, items=2, seed=2)
    res = solve_swm(market)
    assert res.partitions_evaluated == 3003
    assert 1 <= res.flows_solved < res.partitions_evaluated // 10
    assert res.flows_solved <= res.partitions_priced
    assert res.partitions_priced < res.partitions_evaluated // 10


def _flat_reference(market):
    """Last welfare maximum over every partition, each solved by its flow."""
    best = None
    layout = _AssignmentLayout(market)
    n, cells = len(market.buyers), len(market.vendor_tuples)
    for counts in enumerate_partitions(n, cells):
        choice, value = layout.solve(counts)
        welfare = value - total_price(market, counts)
        if best is None or welfare >= best[0]:
            best = (welfare, choice)
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
        welfare, choice = _flat_reference(market)
        res = solve_swm(market)
        assert res.social_welfare == welfare
        assert res.allocation.choice == choice
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


def _with_ladder(market, thresholds):
    """The market with every real vendor's tiers at ``thresholds``, each
    tier's bundle one unit cheaper than the one before."""
    vendors = [
        dataclasses.replace(
            v,
            tiers=tuple(
                DiscountTier(t, v.base_bundle_price - i)
                for i, t in enumerate(thresholds, start=1)
            ),
        )
        for v in market.real_vendors
    ]
    return Market.build(c=market.c, vendors=vendors, buyers=list(market.buyers))


# Ladders with a zero threshold component, which ``generate_instance`` never
# draws, and the (buyers, vendors) shapes they are tried on per item count.
_ZERO_THRESHOLD_LADDERS = (((2, 0), (3, 1)), ((0, 2, 1),), ((1, 0, 0), (2, 2, 0)))
_LADDER_SHAPES = {2: ((6, 1), (4, 2)), 3: ((4, 1), (2, 2))}


def test_search_leaf_price_is_total_price_on_every_composition():
    rng = random.Random(31)
    tier_counts = set()
    markets = []
    while len(markets) < 100:
        n, m, c = rng.randint(0, 6), rng.randint(1, 3), rng.randint(1, 3)
        if partition_count(n, (m + 1) ** c) > 3000:
            continue
        market = _with_random_tiers(
            rng, generate_instance(buyers=n, vendors=m, items=c, seed=rng.randrange(10**6))
        )
        tier_counts.update(len(v.tiers) for v in market.real_vendors)
        markets.append(market)
    assert tier_counts == {0, 1, 2}
    for ladder in _ZERO_THRESHOLD_LADDERS:
        c = len(ladder[0])
        for (n, m), seed in itertools.product(_LADDER_SHAPES[c], (1, 2)):
            market = _with_ladder(generate_instance(n, m, c, seed), ladder)
            assert validate_market(market).ok
            markets.append(market)
    for market in markets:
        search = _RecordingSearch(market)
        search.run()
        assert [counts for counts, _ in search.leaves] == list(
            enumerate_partitions(len(market.buyers), market.cell_count)
        )
        for counts, price in search.leaves:
            assert price == total_price(market, counts)


def _seeded_markets():
    """The 24 markets of ``test_dijkstra_pops_nondecreasing_distances_within_a_round``."""
    return [
        generate_instance(
            buyers=2 + seed % 3, vendors=1 + seed % 2, items=1 + seed // 12, seed=seed
        )
        for seed in range(24)
    ]


def _tie_heavy_market(n):
    """One vendor at base price 0 and ``n`` valuation-free buyers: every
    partition has welfare 0, so every leaf ties the incumbent."""
    return Market.build(
        c=1, vendors=[Vendor("s1", (0,))], buyers=[Buyer(f"b{i}", {}) for i in range(n)]
    )


def _tie_prone_markets(seed, count):
    """Random small markets with value ranges small enough for many ties."""
    rng = random.Random(seed)
    markets = []
    while len(markets) < count:
        n, m, c = rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 2)
        if partition_count(n, (m + 1) ** c) > 3000:
            continue
        markets.append(
            generate_instance(
                buyers=n,
                vendors=m,
                items=c,
                seed=rng.randrange(10**6),
                max_value=rng.choice((2, 3, 6, 20)),
            )
        )
    return markets


def test_one_cold_flow_per_solve(monkeypatch):
    import gbb.swm

    calls, built = [], []
    solver, network = gbb.swm.min_cost_max_flow, gbb.swm.FlowNetwork

    def counting(net):
        calls.append(net)
        return solver(net)

    def building(*args):
        built.append(args)
        return network(*args)

    monkeypatch.setattr(gbb.swm, "min_cost_max_flow", counting)
    monkeypatch.setattr(gbb.swm, "FlowNetwork", building)
    empty = Market.build(c=2, vendors=[Vendor("s1", (2, 2))], buyers=[])
    tie_heavy = _tie_heavy_market(30)
    for market in [empty, tie_heavy] + _seeded_markets():
        calls.clear()
        built.clear()
        res = solve_swm(market)
        # The winner's network is built, and its edges validated, once.
        assert len(calls) == len(built) == 1
    # Every leaf of the tie-heavy market ties, so every one gets a flow, and
    # the cold solve after the search is not counted among them.
    res = solve_swm(tie_heavy)
    assert res.partitions_priced == res.flows_solved == 31


def test_compiled_leaf_values_equal_cold_values(monkeypatch):
    valued = []
    compiled = _AssignmentLayout.value

    def recording(self, counts):
        value = compiled(self, counts)
        valued.append((counts, value))
        return value

    monkeypatch.setattr(_AssignmentLayout, "value", recording)
    markets = _seeded_markets() + _tie_prone_markets(7, 40)
    for market in markets:
        valued.clear()
        res = solve_swm(market)
        assert len(valued) == res.flows_solved
        layout = _AssignmentLayout(market)
        for counts, value in valued:
            assert value == layout.solve(counts)[1]
    # One layout's kernel valuing partition after partition, in search
    # order, against a fresh flow for each.
    for market in markets[:24]:
        layout = _AssignmentLayout(market)
        for counts in enumerate_partitions(len(market.buyers), market.cell_count):
            assert layout.value(counts) == layout.solve(counts)[1]


class _DualSkipSearch(_PartitionSearch):
    """Records each leaf that the dual bound skipped, with its price and
    the incumbent welfare of that moment."""

    def __init__(self, market):
        super().__init__(market)
        self.skipped = []

    def _leaf(self, counts, price):
        flows, best = self.flows, self.best
        super()._leaf(counts, price)
        if self.flows == flows:
            self.skipped.append((tuple(counts), price, best[0]))


def test_dual_bound_skips_only_leaves_strictly_below_the_incumbent():
    skipped = 0
    for market in [_tie_heavy_market(6)] + _tie_prone_markets(11, 150):
        search = _DualSkipSearch(market)
        search.run()
        for counts, price, incumbent in search.skipped:
            assert search.layout.solve(counts)[1] - price < incumbent
        skipped += len(search.skipped)
    # 672 leaves here; skipping on equality instead would skip 959, of which
    # 265 tie the incumbent.
    assert skipped >= 50


def test_dual_bound_leaves_few_flows_at_twenty_buyers():
    res = solve_swm(generate_instance(buyers=20, vendors=2, items=2, seed=1))
    assert res.social_welfare == 103
    assert res.partitions_priced == 2426
    assert res.flows_solved <= 60


def test_solve_swm_refuses_a_winner_its_cold_flow_disagrees_with(
    fix_e2, monkeypatch
):
    compiled = _AssignmentLayout.value
    monkeypatch.setattr(
        _AssignmentLayout, "value", lambda self, counts: compiled(self, counts) + 1
    )
    with pytest.raises(RuntimeError, match="in its own flow but"):
        solve_swm(fix_e2)
