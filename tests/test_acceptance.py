"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Everything asserts exact integer/rational equality; the only
tolerances are the stated wall-clock budgets.

Criteria 6 (price-delta round trip) and 7 (cycle elimination) are retired:
the pipeline builds rational group transfers directly, which criterion 3
pins, so neither reconstruction exists any more.  The other criteria keep
their numbers and test ids.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from gbb.cli import main
from gbb.documents import (
    SolutionBundle,
    load_solution,
    solution_to_dict,
    to_canonical_json,
)
from gbb.flow import max_flow, min_cost_max_flow
from gbb.generate import generate_instance
from gbb.model import (
    Allocation,
    Buyer,
    DiscountTier,
    Market,
    Vendor,
    group_partition,
)
from gbb.swm import brute_force_swm, partition_count, solve_swm
from gbb.transfers import (
    fair_buyer_transfers,
    group_transfer_network,
    prices_from_transfers,
    solve_group_transfers,
)
from gbb.verify import certify, check_fair, surplus_totals

from tests.test_flow import (
    min_cut_capacity,
    random_dag_network,
    random_integral_max_flow,
)
from tests.test_swm import _RecordingSearch
from tests.test_transfers import reference_net_outflows


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE C{criterion}: PASS ({text})")


# --- criterion 1: fixture end-to-end through the CLI ----------------------


def test_c1_fixture_end_to_end(fix_e1_path, fix_e2_path, tmp_path):
    out1 = tmp_path / "e1.json"
    started = time.perf_counter()
    assert main(["solve", fix_e1_path, "--out", str(out1)]) == 0
    elapsed1 = time.perf_counter() - started
    doc1 = json.loads(out1.read_text())
    assert doc1["social_welfare"] == 6
    assert doc1["buyers"]["b1"]["final_price"] == "6"
    assert doc1["buyers"]["b2"]["final_price"] == "4"
    assert doc1["group_transfers"] == [
        {"vendor": "s1", "group": ["s1"], "amount": 1}
    ]
    assert doc1["certificate"]["all_passed"] is True
    assert elapsed1 < 1.0

    out2 = tmp_path / "e2.json"
    started = time.perf_counter()
    assert main(["solve", fix_e2_path, "--out", str(out2)]) == 0
    elapsed2 = time.perf_counter() - started
    doc2 = json.loads(out2.read_text())
    assert doc2["social_welfare"] == 9
    assert {b: e["final_price"] for b, e in doc2["buyers"].items()} == {
        "b1": "5",
        "b2": "5",
        "b3": "5",
    }
    assert doc2["group_transfers"] == [
        {"vendor": "s1", "group": ["s1", "s2"], "amount": 2}
    ]
    assert doc2["transfers"] == [
        {"payer": "b1", "payee": "b3", "amount": "1"},
        {"payer": "b2", "payee": "b3", "amount": "1"},
    ]
    assert doc2["certificate"]["all_passed"] is True
    assert elapsed2 < 1.0
    report(1, f"fixtures solved and certified in {elapsed1:.3f}s / {elapsed2:.3f}s")


# --- criteria 2-5 share one 200-instance corpus ----------------------------


@pytest.fixture(scope="module")
def corpus():
    results = []
    started = time.perf_counter()
    for i in range(200):
        market = generate_instance(
            buyers=(i % 4) + 1,
            vendors=(i % 2) + 1,
            items=((i // 2) % 2) + 1,
            seed=31_000 + i,
            max_value=20,
        )
        solved = solve_swm(market)
        _, oracle_welfare = brute_force_swm(market)
        gp = group_partition(market, solved.allocation)
        gt = solve_group_transfers(market, solved.allocation)
        matrix = fair_buyer_transfers(market, solved.allocation, gp, gt)
        prices = prices_from_transfers(market, solved.allocation, matrix)
        results.append(
            {
                "market": market,
                "solved": solved,
                "oracle_welfare": oracle_welfare,
                "gp": gp,
                "gt": gt,
                "matrix": matrix,
                "prices": prices,
            }
        )
    return results, time.perf_counter() - started


def test_c2_oracle_equivalence(corpus):
    results, elapsed = corpus
    assert len(results) == 200
    for item in results:
        assert item["solved"].social_welfare == item["oracle_welfare"]
    assert elapsed < 60.0
    report(2, f"200 instances, solver == oracle everywhere, {elapsed:.1f}s total")


def test_c3_transfer_flow_saturates(corpus):
    results, _ = corpus
    discounted = 0
    for item in results:
        gp = item["gp"]
        net = group_transfer_network(gp)
        needed = sum(gp.negative_totals.values())
        assert max_flow(net).value == needed
        # rational: a vendor only pays groups that buy from it
        assert all(s in x for s, x in item["gt"].entries)
        if needed > 0:
            discounted += 1
    report(
        3,
        f"all 200 transfer flows saturate ({discounted} needed subsidy), "
        "no cross transfers",
    )


def test_c4_surplus_covers_subsidy(corpus):
    results, _ = corpus
    for item in results:
        available, needed = surplus_totals(
            item["market"], item["solved"].allocation
        )
        assert available >= needed
    report(4, "positive surplus covers needed subsidy on every optimum")


def test_c5_fairness_identity(corpus):
    results, _ = corpus
    payers = 0
    for item in results:
        gp, gt, matrix = item["gp"], item["gt"], item["matrix"]
        # payers only pay and receivers only receive, so net outflow is
        # what a payer pays
        assert all(gp.surplus[p] > 0 > gp.surplus[q] for p, q in matrix.entries)
        paid = reference_net_outflows(matrix)
        for s, members in gp.positive_groups.items():
            owed = sum(a for (v, _), a in gt.entries.items() if v == s)
            share = Fraction(owed, gp.positive_totals[s])
            for b in members:
                assert paid.get(b, 0) == gp.surplus[b] * share
                payers += 1
        assert check_fair(gp, item["prices"]).passed
    report(5, f"exact proportional payments for {payers} payers")


# --- criterion 8: partition counting ----------------------------------------


def test_c8_partition_count_identity():
    # (real vendors, item types): 1, 1, 2, 4, 3, 9 and 8 cells.
    shapes = [(m, c) for m in range(3) for c in (1, 2)] + [(1, 3)]
    cell_counts = set()
    checked = 0
    for n in range(0, 7):
        for m, c in shapes:
            market = Market.build(
                c=c,
                vendors=[Vendor(f"s{j}", (1,) * c) for j in range(1, m + 1)],
                buyers=[Buyer(f"b{i}", {}) for i in range(n)],
            )
            cells = market.cell_count
            cell_counts.add(cells)
            # No incumbent is ever set, so the search reaches every leaf.
            search = _RecordingSearch(market)
            search.run()
            leaves = [counts for counts, _ in search.leaves]
            assert len(leaves) == len(set(leaves))
            assert all(sum(counts) == n for counts in leaves)
            assert len(leaves) == partition_count(n, cells)
            assert partition_count(n, cells) == math.comb(n + cells - 1, cells - 1)
            checked += 1
    assert cell_counts == {1, 2, 3, 4, 8, 9}
    report(8, f"search leaf count equals binomial on {checked} (N, market) pairs")


# --- criterion 9: flow engine vs brute force --------------------------------


def test_c9_flow_engine_oracles():
    rng = random.Random(909)
    sampled = 0
    for _ in range(50):
        net = random_dag_network(rng, max_nodes=12)
        flow = max_flow(net)
        assert flow.value == min_cut_capacity(net)
        best = min_cost_max_flow(net)
        assert best.value == flow.value
        for _ in range(4):
            value, cost = random_integral_max_flow(net, rng)
            assert value == best.value
            assert best.cost <= cost
            sampled += 1
    report(9, f"50 networks match min-cut; min cost beat {sampled} samples")


# --- criterion 10: post-optimization stages at scale -------------------------


def make_large_market(scale=1):
    """500·scale buyers: 300·scale bundled payers of s1, 100·scale negative
    s1-bundle buyers and 100·scale negative (s1, s2) buyers."""
    vendors = [
        Vendor("s1", (10, 10), (DiscountTier((350 * scale, 350 * scale), 12),)),
        Vendor("s2", (3, 3)),
        Vendor("s3", (4, 4)),
    ]
    buyers = []
    choice = {}
    for i in range(300 * scale):
        bid = f"a{i:03d}"
        buyers.append(Buyer(bid, {("s1", "s1"): 30}))
        choice[bid] = ("s1", "s1")
    for i in range(100 * scale):
        bid = f"b{i:03d}"
        buyers.append(Buyer(bid, {("s1", "s1"): 13, ("s2", "s2"): 8}))
        choice[bid] = ("s1", "s1")
    for i in range(100 * scale):
        bid = f"c{i:03d}"
        buyers.append(Buyer(bid, {("s1", "s2"): 12, ("s2", "s2"): 7}))
        choice[bid] = ("s1", "s2")
    return Market.build(c=2, vendors=vendors, buyers=buyers), Allocation(choice)


def post_stages(market, alloc):
    gp = group_partition(market, alloc)
    gt = solve_group_transfers(market, alloc)
    matrix = fair_buyer_transfers(market, alloc, gp, gt)
    prices = prices_from_transfers(market, alloc, matrix)
    return gp, gt, matrix, prices


def assert_large_market_prices(gt, prices, scale):
    assert gt.incoming_totals() == {("s1",): 100 * scale, ("s1", "s2"): 200 * scale}
    # every bundled payer gives 300/2400 = 1/8 of her surplus of 8
    assert prices.entries["a000"].delta == 1
    assert prices.entries["b000"].delta == Fraction(-1)
    assert prices.entries["c000"].delta == Fraction(-2)
    assert sum(e.delta for e in prices.entries.values()) == 0


def test_c10_transfer_stage_scales():
    market, alloc = make_large_market()
    started = time.perf_counter()
    gp, gt, matrix, prices = post_stages(market, alloc)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert_large_market_prices(gt, prices, 1)

    checks = certify(market, alloc, prices, gt, matrix, gp=gp)
    assert checks.all_passed
    report(
        10,
        f"transfer + pricing stages for 500 buyers in {elapsed:.2f}s (< 5s)",
    )


def test_c10_2000_buyer_document_round_trips_byte_for_byte(tmp_path):
    market, alloc = make_large_market(scale=4)
    gp, gt, matrix, prices = post_stages(market, alloc)
    checks = certify(market, alloc, prices, gt, matrix, gp=gp)
    bundle = SolutionBundle(
        social_welfare=sum(gp.utility.values()),
        allocation=alloc,
        prices=prices,
        utilities=gp.utility,
        surpluses=gp.surplus,
        group_transfers=gt,
        matrix=matrix,
        certificate=checks.to_jsonable(),
        metadata={"solver": "fixed-allocation"},
    )
    doc = solution_to_dict(bundle)
    text = to_canonical_json(doc)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # The reader shares records and rationals differently from the solve
    # side, so writing what it read covers a second sharing pattern.
    path = tmp_path / "large.solve.json"
    path.write_text(text, encoding="utf-8")
    assert to_canonical_json(solution_to_dict(load_solution(str(path)))) == text
    # Buyers with one price entry, utility and surplus share one record.
    records = doc["buyers"].values()
    fields = ("market_price", "delta", "final_price", "utility", "surplus")
    distinct = {tuple(record[field] for field in fields) for record in records}
    assert len({id(record) for record in records}) == len(distinct)
    report(10, f"2 000-buyer document, {len(distinct)} distinct buyer records")


def test_c10_post_stages_and_certify_scale_to_20000_buyers():
    market, alloc = make_large_market(scale=40)
    started = time.perf_counter()
    gp, gt, matrix, prices = post_stages(market, alloc)
    checks = certify(market, alloc, prices, gt, matrix, gp=gp)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert_large_market_prices(gt, prices, 40)
    assert checks.all_passed
    report(
        10,
        f"transfer, pricing and certify for 20 000 buyers in {elapsed:.2f}s (< 60s)",
    )
