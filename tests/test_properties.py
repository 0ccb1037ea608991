"""Property tests drawn by Hypothesis; skipped when it is not installed."""

import contextlib
import io
import json
from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from gbb.cli import main  # noqa: E402
from gbb.flow import Edge, FlowNetwork, max_flow, min_cost_max_flow  # noqa: E402
from gbb.generate import generate_instance  # noqa: E402
from gbb.model import (  # noqa: E402
    Buyer,
    DiscountTier,
    GroupPartition,
    ITEM_TYPES_LIMIT,
    Market,
    NULL_VENDOR,
    Vendor,
    group_partition,
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
    fair_buyer_transfers,
    prices_from_transfers,
    solve_group_transfers,
)
from gbb.verify import certify  # noqa: E402

from tests.conftest import data_path  # noqa: E402
from tests.test_model import (  # noqa: E402
    reference_buyer_market_price,
    reference_surplus,
    reference_utility,
)
from tests.test_swm import assert_assignment_fits, enumerate_partitions  # noqa: E402


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
