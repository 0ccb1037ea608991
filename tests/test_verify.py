"""Certificate checks: positive paths, hand-made violations, witnesses."""

import random
from fractions import Fraction

from gbb.generate import generate_instance
from gbb.model import (
    Allocation,
    all_surpluses,
    group_partition,
    market_prices,
    triggered_tiers,
)
from gbb.swm import solve_swm
from gbb.transfers import (
    GroupTransfers,
    PriceEntry,
    PriceVector,
    TransferMatrix,
    fair_buyer_transfers,
    prices_from_transfers,
    solve_group_transfers,
)
from gbb.verify import (
    certify,
    check_budget_balance,
    check_fair,
    check_group_condition,
    check_p_consistent,
    check_rational_prices,
    check_stable,
    surplus_totals,
)
from tests.test_model import reference_demand_vectors
from tests.test_transfers import reference_net_outflows

MU_A = Allocation({"b1": ("s1", "s1"), "b2": ("s1", "s1")})
MU_STAR = Allocation(
    {"b1": ("s1", "s1"), "b2": ("s1", "s1"), "b3": ("s1", "s2")}
)


def pipeline(market, alloc):
    gp = group_partition(market, alloc)
    gt = solve_group_transfers(market, alloc)
    matrix = fair_buyer_transfers(market, alloc, gp, gt)
    prices = prices_from_transfers(market, alloc, matrix)
    return gp, gt, matrix, prices


def price_vector(market, alloc, deltas):
    """Each buyer's market price under ``alloc`` plus her given delta."""
    return PriceVector(
        {
            b: PriceEntry(market_price=p, delta=deltas[b], final=p + deltas[b])
            for b, p in market_prices(market, alloc).items()
        }
    )


def prices_with_deltas(market, alloc, deltas):
    return price_vector(
        market, alloc, {b: Fraction(deltas.get(b, 0)) for b in market.buyer_ids}
    )


def test_check_stable_fix_e1(fix_e1):
    gp, _, _, prices = pipeline(fix_e1, MU_A)
    assert check_stable(gp, prices).passed

    bare = prices_with_deltas(fix_e1, MU_A, {})
    result = check_stable(gp, bare)
    assert not result.passed
    assert any("b2" in w for w in result.witnesses)


def test_check_stable_vacuous_when_no_negative_surplus(fix_e1):
    alloc = Allocation({"b1": ("s1", "s1"), "b2": ("s2", "s2")})
    gp = group_partition(fix_e1, alloc)
    assert check_stable(gp, prices_with_deltas(fix_e1, alloc, {})).passed


def test_check_rational_prices(fix_e2):
    gp, _, _, prices = pipeline(fix_e2, MU_STAR)
    assert check_rational_prices(gp, prices).passed

    premium_on_negative = prices_with_deltas(
        fix_e2, MU_STAR, {"b3": Fraction(1), "b1": Fraction(-1)}
    )
    result = check_rational_prices(gp, premium_on_negative)
    assert not result.passed
    assert any("b3" in w and "surplus" in w for w in result.witnesses)

    assert check_rational_prices(
        gp, prices_with_deltas(fix_e2, MU_STAR, {})
    ).passed


def test_check_rational_rejects_premium_without_beneficiary(fix_e1):
    # b1 pays although nobody with negative surplus shares the vendor
    market = fix_e1
    lonely = Allocation({"b1": ("s1", "s1"), "b2": ("s1", "s1")})
    gp = group_partition(market, lonely)
    prices = prices_with_deltas(market, lonely, {"b1": 1, "b2": -1})
    # b2 has negative surplus and shares s1, so this passes ...
    assert check_rational_prices(gp, prices).passed
    # ... but paying b2->b1 is premium from a subsidized group: fails
    reverse = prices_with_deltas(market, lonely, {"b2": 1, "b1": -1})
    result = check_rational_prices(gp, reverse)
    assert not result.passed


def test_check_fair(fix_e2):
    gp, _, _, prices = pipeline(fix_e2, MU_STAR)
    assert check_fair(gp, prices).passed

    lopsided = prices_with_deltas(
        fix_e2, MU_STAR, {"b1": Fraction(2), "b3": Fraction(-2)}
    )
    result = check_fair(gp, lopsided)
    assert not result.passed
    assert any("b1" in w and "b2" in w for w in result.witnesses)


def test_check_fair_vacuous_single_payer(fix_e1):
    gp, _, _, prices = pipeline(fix_e1, MU_A)
    assert check_fair(gp, prices).passed


def test_check_group_condition(fix_e1, fix_e2):
    gp, gt, _, _ = pipeline(fix_e1, MU_A)
    assert check_group_condition(gp, gt).passed

    overpay = GroupTransfers(entries={("s1", ("s1",)): 2})
    result = check_group_condition(gp, overpay)
    assert not result.passed
    assert any("needs exactly" in w for w in result.witnesses)

    cross = GroupTransfers(entries={("s2", ("s1",)): 1})
    result = check_group_condition(gp, cross)
    assert not result.passed
    assert any("cross transfer" in w for w in result.witnesses)


def test_check_group_condition_budget(fix_e2):
    gp, _, _, _ = pipeline(fix_e2, MU_STAR)
    greedy = GroupTransfers(entries={("s1", ("s1", "s2")): 9})
    result = check_group_condition(gp, greedy)
    assert not result.passed
    assert any("exceed group surplus" in w for w in result.witnesses)


def test_check_p_consistent(fix_e1):
    matrix = TransferMatrix(entries={("b1", "b2"): Fraction(1)})
    good = prices_with_deltas(fix_e1, MU_A, {"b1": 1, "b2": -1})
    assert check_p_consistent(good, matrix).passed

    bad = prices_with_deltas(fix_e1, MU_A, {"b1": 2, "b2": -1})
    result = check_p_consistent(bad, matrix)
    assert not result.passed
    assert any("b1" in w for w in result.witnesses)

    empty_ok = prices_with_deltas(fix_e1, MU_A, {})
    assert check_p_consistent(empty_ok, TransferMatrix(entries={})).passed


def test_check_budget_balance(fix_e1):
    balanced = prices_with_deltas(fix_e1, MU_A, {"b1": 1, "b2": -1})
    assert check_budget_balance(balanced).passed
    lopsided = prices_with_deltas(fix_e1, MU_A, {"b1": 2, "b2": -1})
    result = check_budget_balance(lopsided)
    assert not result.passed
    assert "sum to 1" in result.witnesses[0]


def test_certify_pipeline_soundness_random():
    rng = random.Random(4)
    for trial in range(25):
        market = generate_instance(
            buyers=rng.randint(1, 4),
            vendors=rng.randint(1, 2),
            items=rng.randint(1, 2),
            seed=4000 + trial,
            max_value=15,
        )
        alloc = solve_swm(market).allocation
        gp, gt, matrix, prices = pipeline(market, alloc)
        report = certify(market, alloc, prices, gt, matrix, gp=gp)
        assert report.all_passed, report.to_jsonable()
        available, needed = surplus_totals(market, alloc)
        assert available >= needed


def test_failing_checks_carry_witnesses(fix_e1):
    bad = prices_with_deltas(fix_e1, MU_A, {"b1": 5, "b2": -1})
    for result in (
        check_stable(group_partition(fix_e1, MU_A), bad),
        check_budget_balance(bad),
        check_p_consistent(bad, TransferMatrix(entries={})),
    ):
        assert not result.passed
        assert result.witnesses


def test_report_serialization(fix_e1):
    gp, gt, matrix, prices = pipeline(fix_e1, MU_A)
    report = certify(fix_e1, MU_A, prices, gt, matrix, gp=gp)
    data = report.to_jsonable()
    assert data["all_passed"] is True
    assert set(data["checks"]) == {
        "stable",
        "rational_prices",
        "fair",
        "p_consistent",
        "group_condition",
        "budget_balance",
    }


# --- pairwise reference checks ----------------------------------------------
# The check bodies as they were before the checks read a group partition:
# each re-derives surpluses and triggered tiers from (market, allocation) and
# ``reference_fair`` compares every pair of positive-surplus buyers.


def reference_stable(market, alloc, prices):
    sigma = all_surpluses(market, alloc)
    return all(prices.entries[b.id].delta <= sigma[b.id] for b in market.buyers)


def reference_rational_prices(market, alloc, prices):
    sigma = all_surpluses(market, alloc)
    trig = triggered_tiers(market, reference_demand_vectors(market, alloc))
    discount_vendors = {v for v, i in trig.items() if i > 0}
    for buyer in market.buyers:
        if prices.entries[buyer.id].delta <= 0:
            continue
        if sigma[buyer.id] <= 0:
            return False
        choice = alloc.choice[buyer.id]
        vendor = choice[0]
        if any(v != vendor for v in choice) or vendor not in discount_vendors:
            return False
        if not any(
            sigma[other.id] < 0 and vendor in alloc.choice[other.id]
            for other in market.buyers
        ):
            return False
    return True


def reference_fair(market, alloc, prices):
    sigma = all_surpluses(market, alloc)
    eligible = [b.id for b in market.buyers if sigma[b.id] > 0]
    for i, b in enumerate(eligible):
        for other in eligible[i + 1 :]:
            if alloc.choice[b] != alloc.choice[other]:
                continue
            lhs = prices.entries[b].delta * sigma[other]
            rhs = prices.entries[other].delta * sigma[b]
            if lhs != rhs:
                return False
    return True


def perturbed_deltas(rng, market, gp):
    """Delta vectors around the proportional shape the checks look for:
    proportional within each positive group, exact subsidies, then some
    of them nudged, zeroed or drawn at random."""
    proportional = {b: Fraction(0) for b in market.buyer_ids}
    for ids in gp.positive_groups.values():
        ratio = Fraction(rng.randint(0, 4), rng.randint(1, 3))
        for b in ids:
            proportional[b] = ratio * gp.surplus[b]
    for ids in gp.negative_groups.values():
        for b in ids:
            proportional[b] = gp.surplus[b] * rng.choice((0, 1, 1, 2))
    nudged = dict(proportional)
    b = rng.choice(market.buyer_ids)
    nudged[b] += Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
    drawn = {
        b: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for b in market.buyer_ids
    }
    return proportional, nudged, drawn, {}


def test_checks_agree_with_pairwise_reference():
    rng = random.Random(55)
    verdicts = {"stable": [], "rational_prices": [], "fair": []}
    for trial in range(150):
        market = generate_instance(
            buyers=rng.randint(1, 6),
            vendors=rng.randint(1, 2),
            items=rng.randint(1, 2),
            seed=5500 + trial,
            max_value=15,
        )
        if trial % 2:
            alloc = solve_swm(market).allocation
        else:
            cells = market.vendor_tuples
            alloc = Allocation({b: rng.choice(cells) for b in market.buyer_ids})
        gp = group_partition(market, alloc)
        for deltas in perturbed_deltas(rng, market, gp):
            prices = prices_with_deltas(market, alloc, deltas)
            for name, check, reference in (
                ("stable", check_stable, reference_stable),
                ("rational_prices", check_rational_prices, reference_rational_prices),
                ("fair", check_fair, reference_fair),
            ):
                result = check(gp, prices)
                assert result.passed == reference(market, alloc, prices), (
                    name,
                    trial,
                    deltas,
                )
                assert result.passed != bool(result.witnesses)
                verdicts[name].append(result.passed)
    for name, passed in verdicts.items():
        assert 50 <= sum(passed) <= len(passed) - 50, (name, sum(passed))


def test_certify_derives_the_group_partition_at_most_once(fix_e2, monkeypatch):
    import gbb.verify

    gp, gt, matrix, prices = pipeline(fix_e2, MU_STAR)
    calls = {"all_surpluses": 0, "group_partition": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(
            gbb.verify, name, counting(name, getattr(gbb.verify, name))
        )

    assert certify(fix_e2, MU_STAR, prices, gt, matrix, gp=gp).all_passed
    assert calls == {"all_surpluses": 0, "group_partition": 0}
    assert certify(fix_e2, MU_STAR, prices, gt, matrix).all_passed
    assert calls == {"all_surpluses": 0, "group_partition": 1}


def reference_group_condition(gp, gt):
    """The group-condition check as it was before its one-pass fold: every
    group re-sums all group-transfer entries."""
    witnesses = []
    budget_use = {}
    for (s, x), amount in gt.entries.items():
        if s in x:
            budget_use[s] = budget_use.get(s, 0) + amount
        elif amount > 0:
            witnesses.append(
                f"cross transfer: vendor {s} pays {amount} to group "
                f"{{{','.join(x)}}} it does not belong to"
            )
    for s, used in sorted(budget_use.items()):
        available = gp.positive_totals.get(s, 0)
        if used > available:
            witnesses.append(
                f"vendor {s}: transfers {used} exceed group surplus {available}"
            )
    groups = set(gp.negative_totals) | {x for (_, x) in gt.entries}
    for x in sorted(groups):
        needed = gp.negative_totals.get(x, 0)
        got = sum(a for (s, g), a in gt.entries.items() if g == x and s in g)
        if got != needed:
            witnesses.append(
                f"group {{{','.join(x)}}}: receives {got}, needs exactly {needed}"
            )
    return witnesses


def perturbed_group_transfers(rng, market, gt):
    """The solved group transfers, then variants with one amount moved by
    one or dropped, an added cross entry, and an added entry to a group
    nobody forms."""
    yield gt
    entries = dict(gt.entries)
    if entries:
        key = rng.choice(sorted(entries))
        for step in (-1, 1):
            yield GroupTransfers({**entries, key: max(0, entries[key] + step)})
        yield GroupTransfers({k: a for k, a in entries.items() if k != key})
    vendors = sorted(v.id for v in market.real_vendors)
    s = rng.choice(vendors)
    others = tuple(v for v in vendors if v != s) or ("null",)
    yield GroupTransfers({**entries, (s, others): rng.randint(0, 3)})
    yield GroupTransfers({**entries, (s, (s, "zz")): rng.randint(1, 3)})


def test_group_condition_agrees_with_reference():
    rng = random.Random(77)
    verdicts = []
    for trial in range(150):
        market = generate_instance(
            buyers=rng.randint(1, 6),
            vendors=rng.randint(1, 2),
            items=rng.randint(1, 2),
            seed=7700 + trial,
            max_value=15,
        )
        alloc = solve_swm(market).allocation
        gp = group_partition(market, alloc)
        gt = solve_group_transfers(market, alloc)
        for variant in perturbed_group_transfers(rng, market, gt):
            result = check_group_condition(gp, variant)
            assert list(result.witnesses) == reference_group_condition(
                gp, variant
            ), (trial, variant.entries)
            assert result.passed != bool(result.witnesses)
            verdicts.append(result.passed)
    assert 50 <= sum(verdicts) <= len(verdicts) - 50, sum(verdicts)


# --- integer arithmetic against the ``Fraction`` formulas ---------------------


def fraction_stable_witnesses(gp, prices):
    return [
        f"buyer {b}: price delta {prices.entries[b].delta} exceeds surplus {sigma}"
        for b, sigma in gp.surplus.items()
        if prices.entries[b].delta > sigma
    ]


def fraction_fair_witnesses(gp, prices):
    sigma = gp.surplus
    witnesses = []
    for first, *rest in gp.positive_groups.values():
        d_first = prices.entries[first].delta
        for other in rest:
            d_other = prices.entries[other].delta
            if d_first * sigma[other] != d_other * sigma[first]:
                witnesses.append(
                    f"buyers {first},{other}: {d_first}*{sigma[other]} != "
                    f"{d_other}*{sigma[first]}"
                )
    return witnesses


def fraction_budget_witnesses(prices):
    total = sum((e.delta for e in prices.entries.values()), Fraction(0))
    return [] if total == 0 else [f"price deltas sum to {total}, expected 0"]


def fraction_p_consistent_witnesses(prices, matrix):
    flows = reference_net_outflows(matrix)
    unknown = [b for b in flows if b not in prices.entries]
    if unknown:
        return [f"transfer references unknown buyer {unknown[0]}"]
    witnesses = []
    for b in sorted(prices.entries):
        delta, flow = prices.entries[b].delta, flows.get(b, Fraction(0))
        if delta != flow:
            witnesses.append(f"buyer {b}: price delta {delta} != net transfer {flow}")
    return witnesses


def tampered_matrix(rng, matrix):
    """``matrix`` with one amount rescaled or nudged (its payer and payee
    then net to a new denominator), or with a payment to an unknown buyer."""
    entries = dict(matrix.entries)
    pair = rng.choice(sorted(entries))
    kind = rng.randrange(3)
    if kind == 0:
        entries[pair] *= rng.choice((2, Fraction(3, 7), Fraction(5, 11)))
    elif kind == 1:
        entries[pair] += Fraction(rng.randint(1, 5), rng.choice((1, 7, 97)))
    else:
        entries[(pair[0], "zz")] = Fraction(1, 3)
    return TransferMatrix(entries=entries)


def tampered_deltas(rng, deltas):
    """Pipeline deltas rescaled (sign flips and coprime factors keep fairness
    and balance), shifted between two buyers (keeps balance), nudged at one
    buyer, or with one sign flipped; integral values sometimes become ints."""
    ids = list(deltas)
    out = dict(deltas)
    kind = rng.randrange(4)
    if kind == 0:
        factor = rng.choice((-1, -2, Fraction(3, 7), Fraction(-5, 11)))
        out = {b: d * factor for b, d in out.items()}
    elif kind == 1 and len(ids) > 1:
        a, b = rng.sample(ids, 2)
        eps = Fraction(rng.randint(1, 5), rng.choice((1, 7, 11, 97)))
        out[a] -= eps
        out[b] += eps
    elif kind == 2:
        out[rng.choice(ids)] += Fraction(rng.choice((-1, 1)), rng.choice((1, 3, 13)))
    else:
        b = rng.choice(ids)
        out[b] = -out[b]
    return {
        b: int(d) if d.denominator == 1 and rng.random() < 0.5 else d
        for b, d in out.items()
    }


def drawn_bundle_market(rng, payers, needy):
    """``make_large_market``'s shape with drawn payer values: surpluses 5..8
    differ, so the payers' deltas reduce to different denominators."""
    from gbb.model import Buyer, DiscountTier, Market, Vendor

    threshold = payers + needy // 2
    vendors = [
        Vendor("s1", (10, 10), (DiscountTier((threshold, threshold), 12),)),
        Vendor("s2", (3, 3)),
    ]
    buyers, choice = [], {}
    for i in range(payers):
        buyers.append(Buyer(f"a{i:03d}", {("s1", "s1"): rng.randint(17, 20)}))
        choice[f"a{i:03d}"] = ("s1", "s1")
    for i in range(needy):
        buyers.append(Buyer(f"b{i:03d}", {("s1", "s1"): 13, ("s2", "s2"): 8}))
        choice[f"b{i:03d}"] = ("s1", "s1")
        buyers.append(Buyer(f"c{i:03d}", {("s1", "s2"): 12, ("s2", "s2"): 7}))
        choice[f"c{i:03d}"] = ("s1", "s2")
    return Market.build(c=2, vendors=vendors, buyers=buyers), Allocation(choice)


def test_integer_checks_match_the_fraction_formulas():
    from tests.test_acceptance import make_large_market

    rng = random.Random(1203)
    cases = [make_large_market()]
    cases += [drawn_bundle_market(rng, 30, 10) for _ in range(10)]
    for trial in range(80):
        market = generate_instance(
            buyers=rng.randint(2, 7),
            vendors=rng.randint(1, 2),
            items=rng.randint(1, 2),
            seed=1300 + trial,
            max_value=rng.choice((15, 40)),
        )
        cases.append((market, solve_swm(market).allocation))
    verdicts = {"stable": [], "fair": [], "budget_balance": [], "p_consistent": []}
    negative = 0
    # Matrix changes draw from their own generator, so the tampered deltas
    # stay those the other checks were tuned on.
    matrix_rng = random.Random(1204)
    for market, alloc in cases:
        gp, _, matrix, prices = pipeline(market, alloc)
        base = {b: e.delta for b, e in prices.entries.items()}
        for _ in range(3 if matrix.entries else 0):
            variant = tampered_matrix(matrix_rng, matrix)
            result = check_p_consistent(prices, variant)
            witnesses = fraction_p_consistent_witnesses(prices, variant)
            assert witnesses
            assert list(result.witnesses) == witnesses, variant.entries
            assert not result.passed
        for deltas in (base, *(tampered_deltas(rng, base) for _ in range(6))):
            tampered = price_vector(market, alloc, deltas)
            negative += any(d < 0 for d in deltas.values())
            for name, result, witnesses in (
                (
                    "p_consistent",
                    check_p_consistent(tampered, matrix),
                    fraction_p_consistent_witnesses(tampered, matrix),
                ),
                (
                    "stable",
                    check_stable(gp, tampered),
                    fraction_stable_witnesses(gp, tampered),
                ),
                (
                    "fair",
                    check_fair(gp, tampered),
                    fraction_fair_witnesses(gp, tampered),
                ),
                (
                    "budget_balance",
                    check_budget_balance(tampered),
                    fraction_budget_witnesses(tampered),
                ),
            ):
                assert list(result.witnesses) == witnesses, name
                assert result.passed == (not witnesses)
                verdicts[name].append(result.passed)
    assert negative >= 100
    # the drawn markets' fair deltas differ in denominator within a group
    gp, _, _, prices = pipeline(*cases[1])
    payers = gp.positive_groups["s1"]
    assert len({prices.entries[b].delta.denominator for b in payers}) > 1
    for name, passed in verdicts.items():
        assert 20 <= sum(passed) <= len(passed) - 20, (name, sum(passed))
