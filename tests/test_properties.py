"""Property tests drawn by Hypothesis; skipped when it is not installed."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from gbb.flow import Edge, FlowNetwork, max_flow, min_cost_max_flow  # noqa: E402
from gbb.generate import generate_instance  # noqa: E402
from gbb.model import Buyer, Market, NULL_VENDOR  # noqa: E402
from gbb.swm import brute_force_swm, solve_swm  # noqa: E402


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
    assert res.flows_solved <= res.partitions_total


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
