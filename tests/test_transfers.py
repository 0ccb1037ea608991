"""Group transfers, buyer transfers and prices."""

import random
from fractions import Fraction

import pytest

from gbb.generate import generate_instance
from gbb.model import Allocation, GroupPartition, group_partition
from gbb.swm import solve_swm
from gbb.transfers import (
    GroupTransfers,
    SumMismatch,
    TransferMatrix,
    Unstabilizable,
    fair_buyer_transfers,
    greedy_match,
    group_transfer_network,
    prices_from_transfers,
    solve_group_transfers,
)
from gbb.flow import max_flow

MU_A = Allocation({"b1": ("s1", "s1"), "b2": ("s1", "s1")})
MU_STAR = Allocation(
    {"b1": ("s1", "s1"), "b2": ("s1", "s1"), "b3": ("s1", "s2")}
)


def edges_of(net):
    return [(e.tail, e.head, e.capacity, e.tag) for e in net.edges]


def test_transfer_network_fix_e1(fix_e1):
    gp = group_partition(fix_e1, MU_A)
    net = group_transfer_network(gp)
    # r -> group{s1} cap 1; group -> vendor s1 cap 1; vendor -> sink cap 3
    assert edges_of(net) == [
        (0, 1, 1, None),
        (1, 2, 1, ("s1", ("s1",))),
        (2, 3, 3, None),
    ]


def test_transfer_network_fix_e2(fix_e2):
    gp = group_partition(fix_e2, MU_STAR)
    net = group_transfer_network(gp)
    x = ("s1", "s2")
    assert edges_of(net) == [
        (0, 1, 2, None),
        (1, 2, 2, ("s1", x)),
        (1, 3, 2, ("s2", x)),
        (2, 4, 8, None),
        (3, 4, 0, None),
    ]


def test_transfer_network_empty_when_no_negatives(fix_e1):
    alloc = Allocation({"b1": ("s1", "s1"), "b2": ("s2", "s2")})
    gp = group_partition(fix_e1, alloc)
    net = group_transfer_network(gp)
    assert all(e.tail != net.source for e in net.edges)
    assert max_flow(net).value == 0
    assert solve_group_transfers(fix_e1, alloc).entries == {}


def test_solve_group_transfers_fixtures(fix_e1, fix_e2):
    gt1 = solve_group_transfers(fix_e1, MU_A)
    assert dict(gt1.entries) == {("s1", ("s1",)): 1}

    gt2 = solve_group_transfers(fix_e2, MU_STAR)
    assert dict(gt2.entries) == {("s1", ("s1", "s2")): 2}


def test_solve_group_transfers_unstabilizable(fix_e1):
    # swapped choices: nobody triggers a discount, both buyers sit below
    # their best alternatives, and no surplus exists to cover them
    alloc = Allocation({"b1": ("s2", "s2"), "b2": ("s1", "s1")})
    with pytest.raises(Unstabilizable) as exc:
        solve_group_transfers(fix_e1, alloc)
    assert exc.value.deficits == {("s1",): 4, ("s2",): 2}


def test_greedy_match_trace():
    result = greedy_match([("a", 3), ("b", 2)], [("x", 4), ("y", 1)])
    assert list(result.items()) == [
        (("a", "x"), 3),
        (("b", "x"), 1),
        (("b", "y"), 1),
    ]
    assert all(type(a) is int for a in result.values())


def test_greedy_match_single_pair_and_split():
    assert greedy_match([("a", 5)], [("x", 5)]) == {("a", "x"): 5}
    assert greedy_match([("a", 1), ("b", 1)], [("x", 2)]) == {
        ("a", "x"): 1,
        ("b", "x"): 1,
    }


def test_greedy_match_entry_bound():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 6)
        offers = [(f"p{i}", rng.randint(1, 9)) for i in range(n)]
        total = sum(a for _, a in offers)
        m = rng.randint(1, min(6, total))
        cuts = sorted(rng.sample(range(1, total), m - 1)) if m > 1 else []
        bounds = [0] + cuts + [total]
        requests = [(f"q{j}", bounds[j + 1] - bounds[j]) for j in range(m)]
        requests = [(b, a) for b, a in requests if a > 0]
        result = greedy_match(offers, requests)
        assert len(result) <= n + len(requests) - 1
        for (_, _), amount in result.items():
            assert amount > 0


def test_greedy_match_rejects_negative_amounts_and_skips_zero_offers():
    for offers, requests in (
        ([("a", -1), ("b", 1)], [("x", 0)]),
        ([("a", 1)], [("x", 2), ("y", -1)]),
    ):
        with pytest.raises(ValueError, match="^amounts must be nonnegative$"):
            greedy_match(offers, requests)
    offers = [("a", 0), ("b", 2), ("c", 0), ("d", 1)]
    assert list(greedy_match(offers, [("x", 3)]).items()) == [
        (("b", "x"), 2),
        (("d", "x"), 1),
    ]


def test_greedy_match_sum_mismatch():
    with pytest.raises(SumMismatch):
        greedy_match([("a", 3)], [("x", 4)])


def test_fair_buyer_transfers_fixtures(fix_e1, fix_e2):
    gp1 = group_partition(fix_e1, MU_A)
    gt1 = solve_group_transfers(fix_e1, MU_A)
    assert fair_buyer_transfers(fix_e1, MU_A, gp1, gt1).entries == {
        ("b1", "b2"): Fraction(1)
    }

    gp2 = group_partition(fix_e2, MU_STAR)
    gt2 = solve_group_transfers(fix_e2, MU_STAR)
    matrix = fair_buyer_transfers(fix_e2, MU_STAR, gp2, gt2)
    assert matrix.entries == {
        ("b1", "b3"): Fraction(1),
        ("b2", "b3"): Fraction(1),
    }


def test_fair_buyer_transfers_zero_groups(fix_e1):
    gp = group_partition(fix_e1, MU_A)
    matrix = fair_buyer_transfers(fix_e1, MU_A, gp, GroupTransfers(entries={}))
    assert matrix.entries == {}


def test_fair_buyer_transfers_rejects_inconsistent_group_transfers(fix_e2):
    gp = group_partition(fix_e2, MU_STAR)
    x = ("s1", "s2")
    for entries, message in (
        ({("s1", ("s2",)): 1}, "unknown group"),
        ({("s1", x): 9}, "owes 9 with only 8 left"),
        ({("s9", x): 2}, "without a positive group"),
    ):
        with pytest.raises(SumMismatch, match=message):
            fair_buyer_transfers(fix_e2, MU_STAR, gp, GroupTransfers(entries))
    zero = fair_buyer_transfers(fix_e2, MU_STAR, gp, GroupTransfers({("s9", x): 0}))
    assert zero.entries == {}

    # the budget runs across a vendor's transfers: 2 + 2 > 3
    two_groups = GroupPartition(
        positive_groups={"s1": ("a",)},
        positive_totals={"s1": 3},
        negative_groups={("s1",): ("r",), x: ("q",)},
        negative_totals={("s1",): 2, x: 2},
        market_price={},
        utility={},
        surplus={"a": 3, "r": -2, "q": -2},
    )
    gt = GroupTransfers({("s1", ("s1",)): 2, ("s1", x): 2})
    with pytest.raises(SumMismatch, match="owes 2 with only 1 left"):
        fair_buyer_transfers(fix_e2, MU_STAR, two_groups, gt)


def test_each_group_transfer_divides_by_its_own_scale(fix_e2):
    # Both transfers match a scaled amount of 1: over P·Q = 2 in the first
    # and over 6 in the second, so no quotient carries across transfers.
    x = ("s1", "s2")
    gp = GroupPartition(
        positive_groups={"s1": ("a1", "a2")},
        positive_totals={"s1": 2},
        negative_groups={("s1",): ("r1",), x: ("r2", "r3")},
        negative_totals={("s1",): 1, x: 3},
        market_price={},
        utility={},
        surplus={"a1": 1, "a2": 1, "r1": -1, "r2": -1, "r3": -2},
    )
    gt = GroupTransfers({("s1", ("s1",)): 1, ("s1", x): 1})
    matrix = fair_buyer_transfers(fix_e2, MU_STAR, gp, gt)
    assert matrix.entries == {
        ("a1", "r1"): Fraction(1, 2),
        ("a2", "r1"): Fraction(1, 2),
        ("a1", "r2"): Fraction(1, 3),
        ("a1", "r3"): Fraction(1, 6),
        ("a2", "r3"): Fraction(1, 2),
    }


def reference_fair_buyer_transfers(gp, gt):
    """The earlier split: each payer keeps a residual surplus that every
    round rescales by ``1 - pay_ratio``."""
    entries = {}
    for s in sorted(gp.positive_groups):
        payers = gp.positive_groups[s]
        residual = {b: Fraction(gp.surplus[b]) for b in payers}
        rounds = sorted(x for (vendor, x) in gt.entries if vendor == s)
        for x in rounds:
            amount = gt.entries[(s, x)]
            if amount == 0:
                continue
            if x not in gp.negative_totals:
                raise SumMismatch(f"transfers target unknown group {x!r}")
            residual_total = sum(residual.values(), Fraction(0))
            if residual_total < amount:
                raise SumMismatch(
                    f"vendor {s!r} owes {amount} with only {residual_total} left"
                )
            pay_ratio = Fraction(amount) / residual_total
            receive_ratio = Fraction(amount, gp.negative_totals[x])
            offers = [(b, pay_ratio * residual[b]) for b in payers]
            requests = [
                (b, -receive_ratio * gp.surplus[b]) for b in gp.negative_groups[x]
            ]
            for pair, paid in greedy_match(offers, requests).items():
                entries[pair] = entries.get(pair, Fraction(0)) + paid
            for b in payers:
                residual[b] *= 1 - pay_ratio
    return TransferMatrix(entries=entries)


def test_fair_split_matches_residual_reference():
    from tests.test_acceptance import make_large_market

    rng = random.Random(17)
    cases = [make_large_market(), make_large_market(scale=4)]
    for trial in range(300):
        market = generate_instance(
            buyers=rng.randint(2, 5),
            vendors=rng.randint(1, 2),
            items=rng.randint(1, 2),
            seed=4000 + trial,
            max_value=rng.choice([6, 15, 40]),
        )
        cases.append((market, solve_swm(market).allocation))
    compared = 0
    for market, alloc in cases:
        gt = solve_group_transfers(market, alloc)
        gp = group_partition(market, alloc)
        matrix = fair_buyer_transfers(market, alloc, gp, gt)
        reference = reference_fair_buyer_transfers(gp, gt)
        assert list(matrix.entries.items()) == list(reference.entries.items())
        compared += bool(matrix.entries)
    assert compared >= 25


def test_fairness_identity_on_corpus():
    rng = random.Random(42)
    for trial in range(25):
        market = generate_instance(
            buyers=rng.randint(2, 4),
            vendors=rng.randint(1, 2),
            items=rng.randint(1, 2),
            seed=2000 + trial,
            max_value=15,
        )
        alloc = solve_swm(market).allocation
        gp = group_partition(market, alloc)
        gt = solve_group_transfers(market, alloc)
        matrix = fair_buyer_transfers(market, alloc, gp, gt)
        # payers only pay and receivers only receive
        assert all(gp.surplus[p] > 0 > gp.surplus[q] for p, q in matrix.entries)
        net = reference_net_outflows(matrix)
        for s, members in gp.positive_groups.items():
            paid = sum(a for (v, _), a in gt.entries.items() if v == s)
            share = Fraction(paid, gp.positive_totals[s])
            for b in members:
                assert net.get(b, 0) == gp.surplus[b] * share
        for x, members in gp.negative_groups.items():
            for b in members:
                assert net[b] == gp.surplus[b]


def test_prices_from_transfers_fixtures(fix_e1, fix_e2):
    matrix = TransferMatrix(entries={("b1", "b2"): Fraction(1)})
    pv = prices_from_transfers(fix_e1, MU_A, matrix)
    assert (pv.entries["b1"].final, pv.entries["b2"].final) == (6, 4)

    gp = group_partition(fix_e2, MU_STAR)
    gt = solve_group_transfers(fix_e2, MU_STAR)
    pv2 = prices_from_transfers(
        fix_e2, MU_STAR, fair_buyer_transfers(fix_e2, MU_STAR, gp, gt)
    )
    assert [pv2.entries[b].final for b in ("b1", "b2", "b3")] == [5, 5, 5]
    assert sum(e.delta for e in pv2.entries.values()) == 0


# --- integer folds against plain ``Fraction`` arithmetic -----------------------


def reference_net_outflows(matrix):
    """The fold as plain ``Fraction`` additions."""
    flows = {}
    for (payer, payee), amount in matrix.entries.items():
        flows[payer] = flows.get(payer, Fraction(0)) + amount
        flows[payee] = flows.get(payee, Fraction(0)) - amount
    return flows


def random_matrix(rng, buyers, size):
    """Entries over shared denominators (6, 12, 35), coprime ones (7, 11, 97,
    2^61 - 1) and ``int`` amounts; a buyer may both pay and receive."""
    pairs = [(a, b) for a in buyers for b in buyers if a != b]
    entries = {}
    for payer, payee in rng.sample(pairs, min(size, len(pairs))):
        kind = rng.randrange(3)
        if kind == 0:
            amount = rng.randint(1, 9)
        else:
            dens = (6, 12, 35) if kind == 1 else (7, 11, 97, 2**61 - 1)
            amount = Fraction(rng.randint(1, 50), rng.choice(dens))
        entries[(payer, payee)] = amount
    return TransferMatrix(entries=entries)


def test_net_outflow_terms_match_a_fraction_fold():
    rng = random.Random(1201)
    both_ways = rescaled = 0
    for trial in range(300):
        buyers = [f"b{i}" for i in range(rng.randint(2, 7))]
        matrix = random_matrix(rng, buyers, rng.randint(1, 16))
        terms = matrix.net_outflow_terms()
        assert all(type(n) is int and type(d) is int for n, d in terms.values())
        assert all(d > 0 for _, d in terms.values())
        flows = {b: Fraction(n, d) for b, (n, d) in terms.items()}
        # values and key order (payer before payee, first appearance)
        assert list(flows.items()) == list(reference_net_outflows(matrix).items())
        payers = {p for p, _ in matrix.entries}
        payees = {q for _, q in matrix.entries}
        both_ways += bool(payers & payees)
        dens = {}
        for (p, q), amount in matrix.entries.items():
            for b in (p, q):
                dens.setdefault(b, set()).add(Fraction(amount).denominator)
        rescaled += any(len(d) > 1 for d in dens.values())
    assert both_ways >= 100 and rescaled >= 100


def test_price_vector_final_is_market_price_plus_delta():
    from gbb.model import market_price_of_choice, market_prices, triggered_tiers
    from tests.test_model import reference_demand_vectors

    rng = random.Random(1202)
    for trial in range(60):
        market = generate_instance(
            buyers=rng.randint(1, 6),
            vendors=rng.randint(1, 3),
            items=rng.randint(1, 2),
            seed=1200 + trial,
            max_value=20,
        )
        cells = market.vendor_tuples
        alloc = Allocation({b: rng.choice(cells) for b in market.buyer_ids})
        trig = triggered_tiers(market, reference_demand_vectors(market, alloc))
        base = market_prices(market, alloc)
        assert base == {
            b: market_price_of_choice(market, alloc.choice[b], trig)
            for b in market.buyer_ids
        }
        matrix = random_matrix(rng, list(market.buyer_ids), rng.randint(0, 12))
        flows = reference_net_outflows(matrix)
        prices = prices_from_transfers(market, alloc, matrix)
        assert list(prices.entries) == list(market.buyer_ids)
        for b, entry in prices.entries.items():
            assert entry.market_price == base[b]
            assert entry.delta == flows.get(b, 0)
            assert entry.final == entry.market_price + entry.delta
            assert type(entry.delta) is Fraction
            assert type(entry.final) is Fraction


def test_prices_with_empty_matrix(fix_e1):
    pv = prices_from_transfers(fix_e1, MU_A, TransferMatrix(entries={}))
    for entry in pv.entries.values():
        assert entry.delta == 0
        assert entry.final == entry.market_price


def test_stability_margin(fix_e1):
    gp = group_partition(fix_e1, MU_A)
    gt = solve_group_transfers(fix_e1, MU_A)
    pv = prices_from_transfers(
        fix_e1, MU_A, fair_buyer_transfers(fix_e1, MU_A, gp, gt)
    )
    for b, entry in pv.entries.items():
        assert entry.delta <= gp.surplus[b]


def test_pipeline_transfers_have_no_edges(fix_e2):
    """Every group transfer stays inside its paying vendor's own groups."""
    gt = solve_group_transfers(fix_e2, MU_STAR)
    assert gt.entries
    assert all(s in x for s, x in gt.entries)


def test_split_coverage_across_vendors():
    """One receiving group subsidized by two vendors at once, with every
    payer's whole surplus consumed (stability holds with equality)."""
    from gbb.model import Buyer, DiscountTier, Market, Vendor

    market = Market.build(
        c=2,
        vendors=[
            Vendor("s1", (5, 5), (DiscountTier((2, 1), 6),)),
            Vendor("s2", (5, 5), (DiscountTier((1, 2), 6),)),
        ],
        buyers=[
            Buyer("b1", {("s1", "s1"): 8}),
            Buyer("b2", {("s2", "s2"): 12}),
            Buyer("b3", {("s1", "s2"): 8, ("s2", "s2"): 11}),
            Buyer("b4", {("s1", "s2"): 8, ("s2", "s2"): 11}),
        ],
    )
    alloc = Allocation(
        {
            "b1": ("s1", "s1"),
            "b2": ("s2", "s2"),
            "b3": ("s1", "s2"),
            "b4": ("s1", "s2"),
        }
    )
    gp = group_partition(market, alloc)
    assert gp.positive_totals == {"s1": 2, "s2": 4}
    assert gp.negative_totals == {("s1", "s2"): 6}

    gt = solve_group_transfers(market, alloc)
    assert dict(gt.entries) == {
        ("s1", ("s1", "s2")): 2,
        ("s2", ("s1", "s2")): 4,
    }

    matrix = fair_buyer_transfers(market, alloc, gp, gt)
    assert matrix.entries == {
        ("b1", "b3"): Fraction(1),
        ("b1", "b4"): Fraction(1),
        ("b2", "b3"): Fraction(2),
        ("b2", "b4"): Fraction(2),
    }

    prices = prices_from_transfers(market, alloc, matrix)
    finals = [prices.entries[b].final for b in ("b1", "b2", "b3", "b4")]
    assert finals == [8, 10, 7, 7]

    from gbb.verify import certify

    assert certify(market, alloc, prices, gt, matrix, gp=gp).all_passed


def flow_from_transfers(net, gt):
    """Reconstruct per-edge flows from transfer amounts (inverse mapping)."""
    flows = []
    incoming = gt.incoming_totals()
    for e in net.edges:
        if e.tag is not None:
            flows.append(gt.entries.get(e.tag, 0))
        elif e.tail == net.source:
            x = next(
                e2.tag[1] for e2 in net.edges if e2.tag and e2.tail == e.head
            )
            flows.append(incoming.get(x, 0))
        else:
            s = next(
                e2.tag[0] for e2 in net.edges if e2.tag and e2.head == e.tail
            )
            flows.append(sum(a for (v, _), a in gt.entries.items() if v == s))
    return flows


def test_transfer_flow_bijection_round_trip():
    rng = random.Random(31)
    checked = 0
    for trial in range(30):
        market = generate_instance(
            buyers=rng.randint(2, 4),
            vendors=rng.randint(1, 2),
            items=rng.randint(1, 2),
            seed=3000 + trial,
            max_value=15,
        )
        alloc = solve_swm(market).allocation
        gp = group_partition(market, alloc)
        if not gp.negative_groups:
            continue
        checked += 1
        gt = solve_group_transfers(market, alloc)
        net = group_transfer_network(gp)
        flows = flow_from_transfers(net, gt)
        # the reconstruction is a feasible flow saturating the source side
        for f, e in zip(flows, net.edges):
            assert 0 <= f <= e.capacity
        for v in range(net.node_count):
            if v in (net.source, net.sink):
                continue
            inflow = sum(f for f, e in zip(flows, net.edges) if e.head == v)
            outflow = sum(f for f, e in zip(flows, net.edges) if e.tail == v)
            assert inflow == outflow
        assert sum(
            f for f, e in zip(flows, net.edges) if e.tail == net.source
        ) == sum(gp.negative_totals.values())
    assert checked >= 3
