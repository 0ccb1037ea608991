"""Property tests drawn by Hypothesis; skipped when it is not installed."""

import contextlib
import io
import json
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from gbb.cli import main  # noqa: E402
from gbb.flow import Edge, FlowNetwork, max_flow, min_cost_max_flow  # noqa: E402
from gbb.generate import generate_instance  # noqa: E402
from gbb.model import (  # noqa: E402
    Allocation,
    Buyer,
    DiscountTier,
    GroupPartition,
    ITEM_TYPES_LIMIT,
    Market,
    NULL_VENDOR,
    Vendor,
    best_alternative,
    cell_prices,
    group_partition,
    market_prices,
)
from gbb.documents import instance_to_dict, to_canonical_json  # noqa: E402
from gbb.swm import (  # noqa: E402
    _AssignmentLayout,
    _PartitionSearch,
    brute_force_swm,
    partition_count,
    solve_swm,
)
from gbb.transfers import (  # noqa: E402
    TransferMatrix,
    Unstabilizable,
    fair_buyer_transfers,
    greedy_match,
    prices_from_transfers,
    solve_group_transfers,
)
from gbb.verify import certify  # noqa: E402

from tests.conftest import data_path, make_fix_e2  # noqa: E402
from tests.test_model import (  # noqa: E402
    reference_buyer_market_price,
    reference_surplus,
    reference_utility,
)
from tests.test_swm import assert_assignment_fits, enumerate_partitions  # noqa: E402
from tests.test_transfers import reference_net_outflows  # noqa: E402


@st.composite
def small_markets(draw):
    """Vendors and tiers of a seeded generated market, drawn valuations 0-6."""
    base = generate_instance(
        buyers=draw(st.integers(0, 4)),
        vendors=draw(st.integers(1, 2)),
        items=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 10**6)),
    )
    cells = [t for t in base.vendor_tuples if any(v != NULL_VENDOR for v in t)]
    buyers = [
        Buyer(b.id, {cell: draw(st.integers(0, 6)) for cell in cells})
        for b in base.buyers
    ]
    return Market.build(c=base.c, vendors=list(base.vendors), buyers=buyers)


@settings(max_examples=80, deadline=None)
@given(small_markets())
def test_solve_swm_matches_brute_force(market):
    res = solve_swm(market)
    assert res.social_welfare == brute_force_swm(market)[1]
    assert res.flows_solved <= res.partitions_evaluated


def _order_sensitive_results(market):
    """Everything downstream of a market whose order could leak out."""
    swm = solve_swm(market)
    oracle = brute_force_swm(market)
    alloc = swm.allocation
    gp = group_partition(market, alloc)
    gt = solve_group_transfers(market, alloc, gp)
    matrix = fair_buyer_transfers(market, alloc, gp, gt)
    prices = prices_from_transfers(market, alloc, matrix)
    return {
        "vendors": market.vendors,
        "buyers": market.buyers,
        "document": instance_to_dict(market),
        "swm": (
            dict(alloc.choice),
            swm.social_welfare,
            swm.partitions_priced,
            swm.flows_solved,
        ),
        "oracle": (dict(oracle[0].choice), oracle[1]),
        "groups": {
            field.name: getattr(gp, field.name) for field in fields(GroupPartition)
        },
        "certificate": certify(market, alloc, prices, gt, matrix, gp=gp).to_jsonable(),
    }


@settings(max_examples=80, deadline=None)
@given(small_markets(), st.randoms(use_true_random=False))
def test_construction_order_never_changes_a_result(market, rng):
    vendors, buyers = list(market.vendors), list(market.buyers)
    rng.shuffle(vendors)
    rng.shuffle(buyers)
    shuffled = Market.build(c=market.c, vendors=vendors, buyers=buyers)
    assert _order_sensitive_results(shuffled) == _order_sensitive_results(market)


class _DualRecordingSearch(_PartitionSearch):
    """Records, per valued leaf, its counts and the ``(C, λ)`` pair its
    value added to the pairs the search keeps."""

    def __init__(self, market):
        super().__init__(market)
        self.kept = []

    def _leaf(self, counts, price):
        flows = self.flows
        super()._leaf(counts, price)
        if self.flows > flows:
            self.kept.append((tuple(counts), self.duals[0]))


@settings(max_examples=60, deadline=None)
@given(small_markets())
def test_every_kept_dual_bounds_every_partition(market):
    search = _DualRecordingSearch(market)
    search.run()
    assert len(search.kept) == search.flows
    layout = search.layout
    values = {
        counts: layout.solve(counts)[1]
        for counts in enumerate_partitions(len(market.buyers), market.cell_count)
    }
    for flowed, (total, lam) in search.kept:
        # Weak duality for every partition, with equality at the leaf whose
        # kernel left the prices.
        for counts, value in values.items():
            assert total + sum(x * n for x, n in zip(lam, counts)) >= value
        assert total + sum(x * n for x, n in zip(lam, flowed)) == values[flowed]


@st.composite
def assignment_leaves(draw):
    """A market with drawn valuations, all zero when their ceiling is 0,
    and a counts tuple that seats its buyers, often leaving cells at 0."""
    base = generate_instance(
        buyers=draw(st.integers(0, 6)),
        vendors=draw(st.integers(1, 2)),
        items=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 10**6)),
    )
    ceiling = draw(st.sampled_from((0, 2, 6, 1000)))
    cells = [t for t in base.vendor_tuples if any(v != NULL_VENDOR for v in t)]
    buyers = [
        Buyer(b.id, {cell: draw(st.integers(0, ceiling)) for cell in cells})
        for b in base.buyers
    ]
    market = Market.build(c=base.c, vendors=list(base.vendors), buyers=buyers)
    k = market.cell_count
    n = len(buyers)
    seats = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return market, tuple(seats.count(j) for j in range(k))


@settings(max_examples=150, deadline=None)
@given(assignment_leaves())
def test_assignment_kernel_is_exact_and_its_duals_bound_every_partition(leaf):
    market, counts = leaf
    layout = _AssignmentLayout(market)
    value, (total, lam), assignment = layout.value(counts)
    cold = layout.solve(counts)[1]
    assert value == cold
    assert_assignment_fits(layout, counts, assignment, cold)
    assert total + sum(x * c for x, c in zip(lam, counts)) == value
    n, k = len(market.buyers), market.cell_count
    if partition_count(n, k) <= 120:
        for m in enumerate_partitions(n, k):
            assert total + sum(x * c for x, c in zip(lam, m)) >= layout.solve(m)[1]


@settings(max_examples=300, deadline=None)
@given(small_markets())
def test_post_stage_certifies_every_welfare_maximal_solution(market):
    result = solve_swm(market)
    alloc = result.allocation
    gp = group_partition(market, alloc)
    gt = solve_group_transfers(market, alloc, gp)
    matrix = fair_buyer_transfers(market, alloc, gp, gt)
    prices = prices_from_transfers(market, alloc, matrix)
    assert certify(market, alloc, prices, gt, matrix, gp=gp).all_passed

    for field, reference in (
        ("market_price", reference_buyer_market_price),
        ("utility", reference_utility),
        ("surplus", reference_surplus),
    ):
        expected = {b: reference(market, alloc, b) for b in market.buyer_ids}
        assert getattr(gp, field) == expected, field
    assert sum(gp.utility.values()) == result.social_welfare


def _scaled(market, k):
    """The market with every valuation, base price and bundle price times
    ``k``, and every threshold kept."""
    vendors = [
        Vendor(
            v.id,
            tuple(k * p for p in v.base_prices),
            tuple(DiscountTier(t.thresholds, k * t.bundle_price) for t in v.tiers),
        )
        for v in market.vendors
    ]
    buyers = [
        Buyer(b.id, {cell: k * x for cell, x in b.valuations.items()})
        for b in market.buyers
    ]
    return Market.build(c=market.c, vendors=vendors, buyers=buyers)


def _solved(market):
    """The welfare, allocation, group transfers and final prices of
    ``market`` through the whole pipeline."""
    result = solve_swm(market)
    alloc = result.allocation
    gp = group_partition(market, alloc)
    gt = solve_group_transfers(market, alloc, gp)
    matrix = fair_buyer_transfers(market, alloc, gp, gt)
    prices = prices_from_transfers(market, alloc, matrix)
    final = {b: entry.final for b, entry in prices.entries.items()}
    return result.social_welfare, alloc.choice, dict(gt.entries), final


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(0, 10**6),
    st.sampled_from((2, 3, 6, 20)),
    st.integers(2, 5),
)
def test_scaling_every_amount_by_k_scales_the_solution_by_k(
    buyers, vendors, items, seed, max_value, k
):
    # Thresholds count buyers, so they stay; every comparison the search,
    # the kernel and the transfer flow make scales by k, ties included.
    market = generate_instance(buyers, vendors, items, seed, max_value=max_value)
    welfare, choice, transfers, final = _solved(market)
    scaled = _solved(_scaled(market, k))
    assert scaled[0] == k * welfare
    assert scaled[1] == choice
    assert scaled[2] == {key: k * amount for key, amount in transfers.items()}
    assert scaled[3] == {b: k * price for b, price in final.items()}


@st.composite
def flow_networks(draw):
    """2-20 nodes, n to 4n edges, no parallel edges, capacities and costs 0-9."""
    n = draw(st.integers(2, 20))
    source = draw(st.integers(0, n - 1))
    sink = draw(st.integers(0, n - 1).filter(lambda v: v != source))
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda arc: arc[0] != arc[1]
            ),
            min_size=n,
            max_size=4 * n,
            unique=True,
        )
    )
    edges = tuple(
        Edge(u, v, draw(st.integers(0, 9)), draw(st.integers(0, 9))) for u, v in arcs
    )
    return FlowNetwork(node_count=n, source=source, sink=sink, edges=edges)


def test_flows_match_networkx():
    nx = pytest.importorskip("networkx")

    @settings(max_examples=200, deadline=None)
    @given(flow_networks())
    def check(net):
        graph = nx.DiGraph()
        graph.add_nodes_from(range(net.node_count))
        for e in net.edges:
            graph.add_edge(e.tail, e.head, capacity=e.capacity, weight=e.cost)
        reference = nx.max_flow_min_cost(graph, net.source, net.sink)
        value = nx.maximum_flow_value(graph, net.source, net.sink)
        flow = min_cost_max_flow(net)
        assert flow.value == value
        assert flow.cost == nx.cost_of_flow(graph, reference)
        assert max_flow(net).value == value

    check()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _slots(doc, holder=None, key=None):
    """(holder, key, value) for ``doc`` (held by ``None``) and for every
    value nested in it."""
    yield holder, key, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _slots(v, doc, k)
    elif isinstance(doc, list):
        for k, v in enumerate(doc):
            yield from _slots(v, doc, k)


@st.composite
def mutated_documents(draw):
    """A golden instance or solution document with one mutation: a key
    deleted, an unknown key added, a value replaced or a list entry
    repeated.  Returns the golden name, its kind and the document."""
    name = draw(st.sampled_from(("fix_e1", "fix_e2", "gen_b4_v2_c2_s7")))
    kind = draw(st.sampled_from(("instance", "solve", "oracle")))
    suffix = "" if kind == "instance" else f".{kind}"
    with open(data_path(f"{name}{suffix}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    slots = list(_slots(doc))
    objects = [v for _, _, v in slots if isinstance(v, dict) and v]
    lists = [v for _, _, v in slots if isinstance(v, list) and v]
    mutation = draw(st.sampled_from(("delete", "add", "replace", "repeat")))
    if mutation == "delete":
        obj = draw(st.sampled_from(objects))
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif mutation == "add":
        obj = draw(st.sampled_from(objects))
        obj[draw(st.text(max_size=4).filter(lambda k: k not in obj))] = draw(
            json_values
        )
    elif mutation == "replace":
        holder, key, _ = draw(st.sampled_from(slots))
        if holder is None:
            doc = draw(json_values)
        else:
            holder[key] = draw(json_values)
    else:
        entries = draw(st.sampled_from(lists))
        k = draw(st.integers(0, len(entries) - 1))
        entries.insert(k, json.loads(json.dumps(entries[k])))
    return name, kind, doc


def _run(argv):
    """``gbb`` in process: the exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_documents_end_in_a_documented_exit(tmp_path_factory, mutated):
    name, kind, doc = mutated
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if kind == "instance":
        runs = [
            (["verify", str(path), data_path(f"{name}.solve.json")], {0, 1, 2}),
            (["solve", str(path)], {0, 1, 2, 3, 4}),
        ]
    else:
        runs = [(["verify", data_path(f"{name}.json"), str(path)], {0, 1, 2})]
    for argv, allowed in runs:
        code, err = _run(argv)
        assert code in allowed, (argv[0], code, err)
        assert "Traceback" not in err


def _cycled(draw, elements, length):
    """``length`` values repeating a drawn pattern of one to three."""
    pattern = draw(st.lists(elements, min_size=1, max_size=3))
    return (pattern * length)[:length]


def _length(draw, c):
    """Mostly ``c`` (at most one past the limit), so that a fair share of
    documents is valid; otherwise 0-3."""
    if draw(st.integers(0, 4)):
        return min(c, ITEM_TYPES_LIMIT + 1)
    return draw(st.integers(0, 3))


@st.composite
def instance_documents(draw):
    """An instance document built from scratch: an item-type count at,
    under or over the limit, 0-3 vendors with base-price lists of random
    length and random discount records, and 0-4 buyers with random
    valuations or 300 buyers without any.  Lists meant to span every item
    type are cut one past the limit."""
    c = draw(
        st.sampled_from(
            (1, 2, 3, 64, ITEM_TYPES_LIMIT, ITEM_TYPES_LIMIT + 1, 10**12, 0)
        )
    )
    vendor_ids = ("s1", "s2", "s3")[: draw(st.integers(0, 3))]
    vendors = [
        {
            "id": vid,
            "base_prices": _cycled(draw, st.integers(0, 6), _length(draw, c)),
            "discounts": [
                {
                    "thresholds": _cycled(draw, st.integers(0, 3), _length(draw, c)),
                    "bundle_price": draw(st.integers(-1, 20)),
                }
                for _ in range(draw(st.integers(0, 1)))
            ],
        }
        for vid in vendor_ids
    ]
    names = st.sampled_from(vendor_ids + (NULL_VENDOR,))
    if draw(st.booleans()):
        buyers = [{"id": f"b{i}", "valuations": []} for i in range(300)]
    else:
        buyers = []
        for i in range(draw(st.integers(0, 4))):
            values = {}
            for _ in range(draw(st.integers(0, 3))):
                choice = tuple(_cycled(draw, names, _length(draw, c)))
                values[choice] = draw(st.integers(0, 10))
            valuations = [{"choice": list(x), "value": v} for x, v in values.items()]
            buyers.append({"id": f"b{i}", "valuations": valuations})
    return {
        "schema": "gbb-market/1",
        "item_types": c,
        "vendors": vendors,
        "buyers": buyers,
    }


@settings(max_examples=300, deadline=None)
@given(instance_documents())
def test_instance_documents_end_in_a_documented_exit(tmp_path_factory, doc):
    path = str(tmp_path_factory.getbasetemp() / "instance.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for argv, allowed in (
        (["partitions", path], {0, 2}),
        (["solve", path, "--max-partitions", "2000"], {0, 2, 3, 4}),
        (["oracle", path, "--max-allocations", "2000"], {0, 2, 3, 4}),
    ):
        code, err = _run(argv)
        assert code in allowed, (argv[0], code, err)
        assert "Traceback" not in err and "internal error" not in err, err


class _Count(int):
    """An ``int`` subclass: ``json`` writes it with ``int.__repr__``."""


canonical_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers().map(_Count)
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


# Explicit examples run on every run, whatever Hypothesis draws: non-ASCII,
# escaped and lone-surrogate strings (also as keys), big ints, non-finite
# and extreme floats, bools, ``None`` and empty containers.
@settings(max_examples=500, deadline=None)
@given(canonical_values)
@example("h\u00e9 \u4e2d \U0001f600")
@example("\"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800")
@example({"\u00e9": 1, "\n": 2, "": 3, "a": {"\ud83d": [None]}})
@example([2**64, -(2**64), 10**40, _Count(2**70), 0])
@example([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1.5e308])
@example([True, False, None, 1, 0])
@example([[], {}, (), [[]], {"k": {}}, ([],)])
@example([])
@example({})
def test_canonical_json_is_json_dumps_with_indent_and_sorted_keys(value):
    expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert to_canonical_json(value) == expected


@st.composite
def milp_markets(draw):
    """Generated markets of the MILP sweep's shapes: (vendors, item types)
    (2, 2), (2, 1) or (3, 1) with 1-30 buyers, or (3, 2) with 1-12, and
    valuations and prices up to 3 or 20."""
    shape = draw(st.sampled_from(((2, 2), (2, 1), (3, 1), (3, 2))))
    return generate_instance(
        buyers=draw(st.integers(1, 12 if shape == (3, 2) else 30)),
        vendors=shape[0],
        items=shape[1],
        seed=draw(st.integers(0, 10**6)),
        max_value=draw(st.sampled_from((3, 20))),
    )


def test_solve_swm_welfare_matches_the_milp_on_drawn_markets():
    pytest.importorskip("scipy")
    from tests.test_milp import milp_welfare

    @settings(max_examples=100, deadline=None)
    @given(milp_markets())
    def check(market):
        welfare = solve_swm(market, max_partitions=10**9).social_welfare
        assert welfare == milp_welfare(market)

    check()


# --- the post stage against per-buyer references ------------------------------


def _three_class_market(draw):
    """The post-large shape in miniature: 1-6 buyers of the discounted s1
    bundle, then up to two more of it and up to three on (s1, s2) who value
    s2's bundle too, each class copying one of two drawn records."""
    bundle, mixed, other = ("s1", "s1"), ("s1", "s2"), ("s2", "s2")
    # (id prefix, choice, most buyers, valued tuples, their value ranges)
    classes = (
        ("a", bundle, 6, (bundle,), ((17, 30),)),
        ("b", bundle, 2, (bundle, other), ((12, 17), (7, 19))),
        ("c", mixed, 3, (mixed, other), ((8, 14), (7, 14))),
    )
    buyers, choice, counts = [], {}, []
    for prefix, chosen, most, valued, ranges in classes:
        values = st.tuples(*(st.integers(low, high) for low, high in ranges))
        records = draw(st.lists(values, min_size=1, max_size=2))
        counts.append(draw(st.integers(1 if prefix == "a" else 0, most)))
        for i in range(counts[-1]):
            b = f"{prefix}{i}"
            buyers.append(Buyer(b, dict(zip(valued, draw(st.sampled_from(records))))))
            choice[b] = chosen
    full = counts[0] + counts[1]
    vendors = [
        Vendor("s1", (10, 10), (DiscountTier((full, full), 12),)),
        Vendor("s2", (3, 3)),
    ]
    return Market.build(c=2, vendors=vendors, buyers=buyers), Allocation(choice)


@st.composite
def shared_choice_markets(draw):
    """A market whose buyers share a few valuation records and choices, and
    an allocation of it: either the post-large shape in miniature, or the
    vendors and tiers of a seeded generated market whose 0-9 buyers copy one
    of at most three records, allocated welfare-maximally or to at most
    three drawn cells."""
    if draw(st.booleans()):
        return _three_class_market(draw)
    base = generate_instance(
        buyers=draw(st.integers(0, 9)),
        vendors=draw(st.integers(1, 2)),
        items=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 10**6)),
    )
    cells = base.vendor_tuples
    real = [cell for cell in cells if any(v != NULL_VENDOR for v in cell)]
    valued = st.lists(st.sampled_from(real), max_size=3, unique=True)
    records = [
        {cell: draw(st.integers(0, 8)) for cell in draw(valued)}
        for _ in range(draw(st.integers(1, 3)))
    ]
    buyers = [Buyer(b.id, dict(draw(st.sampled_from(records)))) for b in base.buyers]
    market = Market.build(c=base.c, vendors=list(base.vendors), buyers=buyers)
    if draw(st.booleans()):
        return market, solve_swm(market).allocation
    pool = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3))
    choice = {b: draw(st.sampled_from(pool)) for b in market.buyer_ids}
    return market, Allocation(choice)


def reference_market_prices(market, alloc):
    """Each buyer's choice checked in id order, then the multiset priced."""
    counts = Counter()
    for b in market.buyer_ids:
        if b not in alloc.choice:
            raise ValueError(f"allocation is missing buyer {b!r}")
        choice = alloc.choice[b]
        if len(choice) != market.c:
            raise ValueError(
                f"buyer {b!r}: choice arity {len(choice)} != {market.c}"
            )
        counts[choice] += 1
    price = cell_prices(market, counts)
    return {b: price[alloc.choice[b]] for b in market.buyer_ids}


def reference_group_partition(market, alloc):
    """``best_alternative`` per buyer and a sorted key per negative buyer."""
    price = reference_market_prices(market, alloc)
    utility = {
        b.id: b.valuation(alloc.choice[b.id]) - price[b.id] for b in market.buyers
    }
    sigma = {b: u - best_alternative(market, b)[1] for b, u in utility.items()}
    positive, negative = {}, {}
    for b, sb in sigma.items():
        choice = alloc.choice[b]
        if sb > 0:
            positive.setdefault(choice[0], []).append(b)
        elif sb < 0:
            negative.setdefault(tuple(sorted(set(choice))), []).append(b)
    positive = {s: tuple(ids) for s, ids in sorted(positive.items())}
    negative = {x: tuple(ids) for x, ids in sorted(negative.items())}
    return {
        "positive_groups": positive,
        "positive_totals": {s: sum(sigma[b] for b in g) for s, g in positive.items()},
        "negative_groups": negative,
        "negative_totals": {x: -sum(sigma[b] for b in g) for x, g in negative.items()},
        "market_price": price,
        "utility": utility,
        "surplus": sigma,
    }


def reference_fair_entries(gp, gt):
    """One ``Fraction(paid, P·Q)`` per matched pair."""
    entries = {}
    for s, x in sorted(gt.entries):
        amount = gt.entries[(s, x)]
        p, q = gp.positive_totals[s], gp.negative_totals[x]
        offers = [(b, amount * gp.surplus[b] * q) for b in gp.positive_groups[s]]
        requests = [(b, -amount * gp.surplus[b] * p) for b in gp.negative_groups[x]]
        for pair, paid in greedy_match(offers, requests).items():
            entries[pair] = Fraction(paid, p * q)
    return entries


def reference_price_entries(market, alloc, matrix):
    """Market price plus the ``Fraction`` sum of each buyer's transfers."""
    flows = reference_net_outflows(matrix)
    return {
        b: (base, flows.get(b, Fraction(0)), base + flows.get(b, Fraction(0)))
        for b, base in reference_market_prices(market, alloc).items()
    }


def _as_fields(gp):
    return {field.name: getattr(gp, field.name) for field in fields(GroupPartition)}


def _ordered(value):
    """``value`` with every dict replaced by its item list, so that two
    results compare equal only with their keys in the same order."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    return value


def _assert_prices_match_the_reference(market, alloc, matrix):
    prices = prices_from_transfers(market, alloc, matrix)
    got = {b: (e.market_price, e.delta, e.final) for b, e in prices.entries.items()}
    assert _ordered(got) == _ordered(reference_price_entries(market, alloc, matrix))
    assert all(
        type(e.delta) is Fraction and type(e.final) is Fraction
        for e in prices.entries.values()
    )


# Equal numerators over different denominators, so that buyers share a
# market price and an outflow numerator but not the outflow.
_AMOUNTS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1))


@settings(max_examples=200, deadline=None)
@given(
    shared_choice_markets(),
    st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20), st.sampled_from(_AMOUNTS)),
        max_size=10,
    ),
)
def test_post_stage_matches_per_buyer_references(drawn, payments):
    market, alloc = drawn
    assert _ordered(market_prices(market, alloc)) == _ordered(
        reference_market_prices(market, alloc)
    )
    gp = group_partition(market, alloc)
    expected = reference_group_partition(market, alloc)
    assert _ordered(_as_fields(gp)) == _ordered(expected)

    ids = market.buyer_ids
    drawn_matrix = TransferMatrix(
        entries={
            (ids[i % len(ids)], ids[j % len(ids)]): amount
            for i, j, amount in payments
            if ids and i % len(ids) != j % len(ids)
        }
    )
    _assert_prices_match_the_reference(market, alloc, drawn_matrix)

    try:
        gt = solve_group_transfers(market, alloc, gp)
    except Unstabilizable:
        return
    matrix = fair_buyer_transfers(market, alloc, gp, gt)
    assert _ordered(matrix.entries) == _ordered(reference_fair_entries(gp, gt))
    assert all(type(a) is Fraction for a in matrix.entries.values())
    _assert_prices_match_the_reference(market, alloc, matrix)


_FAULTS = ("missing", "arity", "unknown vendor")

# Two faults in fix_e2 each, where the per-buyer walk picks the message:
# b1's arity before b2's absence, b2's arity before b1's unknown vendor, and
# b1's unknown vendor before b2's.
_TWO_FAULTS = (
    {"b1": ("s1",), "b3": ("zz", "s1")},
    {"b1": ("s1", "zz"), "b2": ("s1",), "b3": ("s2", "s2")},
    {"b1": ("zz", "s1"), "b2": ("s1", "yy"), "b3": ("s2", "s2")},
)


@st.composite
def invalid_allocations(draw):
    """A drawn market and allocation with one or two buyers broken: left
    out, given a choice of the wrong arity, or given a vendor the market
    does not have."""
    market, alloc = draw(shared_choice_markets().filter(lambda d: d[0].buyers))
    choice = dict(alloc.choice)
    ids = market.buyer_ids
    broken = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2, unique=True))
    for b in broken:
        fault = draw(st.sampled_from(_FAULTS))
        if fault == "missing":
            del choice[b]
        elif fault == "arity":
            longer = draw(st.booleans())
            choice[b] = choice[b] + (NULL_VENDOR,) if longer else choice[b][1:]
        else:
            k = draw(st.integers(0, market.c - 1))
            choice[b] = choice[b][:k] + ("zz",) + choice[b][k + 1 :]
    return market, Allocation(choice)


def _raised(fn, *args):
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


@settings(max_examples=200, deadline=None)
@given(invalid_allocations())
@example((make_fix_e2(), Allocation(_TWO_FAULTS[0])))
@example((make_fix_e2(), Allocation(_TWO_FAULTS[1])))
@example((make_fix_e2(), Allocation(_TWO_FAULTS[2])))
def test_invalid_allocations_raise_as_the_per_buyer_walk(drawn):
    market, alloc = drawn
    expected = _raised(reference_market_prices, market, alloc)
    assert expected[0] is ValueError
    empty = TransferMatrix(entries={})
    assert _raised(market_prices, market, alloc) == expected
    assert _raised(group_partition, market, alloc) == expected
    assert _raised(solve_group_transfers, market, alloc) == expected
    assert _raised(prices_from_transfers, market, alloc, empty) == expected
    # A transfer naming a buyer outside the market is reported first.
    stray = TransferMatrix(entries={("zz", market.buyer_ids[0]): Fraction(1)})
    assert _raised(prices_from_transfers, market, alloc, stray) == (
        ValueError,
        "transfer references unknown buyer 'zz'",
    )


# --- renaming ------------------------------------------------------------------

_NAMES = st.text(alphabet="abnoz09_-", min_size=1, max_size=4)


def _order_preserving(draw, ids, names):
    """A map from the sorted ``ids`` onto as many drawn ``names``, sorted."""
    new = draw(st.lists(names, min_size=len(ids), max_size=len(ids), unique=True))
    return dict(zip(sorted(ids), sorted(new)))


def _renamed_market(market, vendor, buyer):
    def cell(choice):
        return tuple(vendor.get(v, v) for v in choice)

    vendors = [
        Vendor(vendor[v.id], v.base_prices, v.tiers) for v in market.real_vendors
    ]
    buyers = [
        Buyer(buyer[b.id], {cell(c): x for c, x in b.valuations.items()})
        for b in market.buyers
    ]
    return Market.build(c=market.c, vendors=vendors, buyers=buyers)


def _renamed_solution(doc, vendor, buyer):
    """A solution document with its vendor and buyer ids mapped; the null
    vendor keeps its id."""

    def ids(choice):
        return [vendor.get(v, v) for v in choice]

    return {
        **doc,
        "allocation": {buyer[b]: ids(c) for b, c in doc["allocation"].items()},
        "buyers": {buyer[b]: entry for b, entry in doc["buyers"].items()},
        "group_transfers": [
            {**t, "vendor": vendor[t["vendor"]], "group": ids(t["group"])}
            for t in doc["group_transfers"]
        ],
        "transfers": [
            {**t, "payer": buyer[t["payer"]], "payee": buyer[t["payee"]]}
            for t in doc["transfers"]
        ],
    }


def _solve_document(market, directory, name):
    instance = directory / f"{name}.json"
    solution = directory / f"{name}.solve.json"
    instance.write_text(to_canonical_json(instance_to_dict(market)), encoding="utf-8")
    assert _run(["solve", str(instance), "--out", str(solution)]) == (0, "")
    return solution.read_text(encoding="utf-8")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_order_preserving_renames_give_the_same_solve_document(
    tmp_path_factory, data
):
    # Vendor ids sort against the null vendor's too, so every real vendor
    # keeps its side of "null": all drawn markets name theirs "s1", "s2", ...
    market = data.draw(shared_choice_markets())[0]
    real = [v.id for v in market.real_vendors]
    assert all(v > NULL_VENDOR for v in real)
    above_null = _NAMES.filter(lambda n: n > NULL_VENDOR)
    vendor = _order_preserving(data.draw, real, above_null)
    buyer = _order_preserving(data.draw, market.buyer_ids, _NAMES)
    directory = tmp_path_factory.getbasetemp()
    original = json.loads(_solve_document(market, directory, "original"))
    market = _renamed_market(market, vendor, buyer)
    renamed = _solve_document(market, directory, "renamed")
    assert renamed == to_canonical_json(_renamed_solution(original, vendor, buyer))
