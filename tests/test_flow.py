"""Flow engine: determinism, optimality against brute-force oracles."""

import heapq
import itertools
import random

import pytest

import gbb.flow
from gbb.flow import Edge, FlowNetwork, max_flow, min_cost_max_flow


def net_from_edges(n, source, sink, edges):
    return FlowNetwork(
        node_count=n,
        source=source,
        sink=sink,
        edges=tuple(Edge(*e) for e in edges),
    )


def min_cut_capacity(net):
    """Oracle: enumerate every source/sink split and take the cheapest."""
    others = [v for v in range(net.node_count) if v not in (net.source, net.sink)]
    best = None
    for r in range(len(others) + 1):
        for side in itertools.combinations(others, r):
            s_side = set(side) | {net.source}
            cap = sum(
                e.capacity
                for e in net.edges
                if e.tail in s_side and e.head not in s_side
            )
            if best is None or cap < best:
                best = cap
    return best


def random_integral_max_flow(net, rng):
    """Oracle helper: a max flow found by randomized augmenting paths."""
    cap = []
    head = []
    adj = [[] for _ in range(net.node_count)]
    for e in net.edges:
        adj[e.tail].append(len(head))
        head.append(e.head)
        cap.append(e.capacity)
        adj[e.head].append(len(head))
        head.append(e.tail)
        cap.append(0)

    def find_path():
        parent = {net.source: -2}
        stack = [net.source]
        while stack:
            u = stack.pop()
            if u == net.sink:
                break
            nbrs = [eid for eid in adj[u] if cap[eid] > 0 and head[eid] not in parent]
            rng.shuffle(nbrs)
            for eid in nbrs:
                parent[head[eid]] = eid
                stack.append(head[eid])
        if net.sink not in parent:
            return None
        path = []
        v = net.sink
        while v != net.source:
            eid = parent[v]
            path.append(eid)
            v = head[eid ^ 1]
        return path

    value = 0
    while True:
        path = find_path()
        if path is None:
            break
        push = min(cap[eid] for eid in path)
        for eid in path:
            cap[eid] -= push
            cap[eid ^ 1] += push
        value += push
    flows = [cap[2 * i + 1] for i in range(len(net.edges))]
    cost = sum(f * e.cost for f, e in zip(flows, net.edges))
    return value, cost


def reference_min_cost_max_flow(net):
    """Oracle: successive shortest paths with Bellman-Ford each round."""
    INF = float("inf")
    cap, costs, head = [], [], []
    adj = [[] for _ in range(net.node_count)]
    for e in net.edges:
        adj[e.tail].append(len(head))
        head.append(e.head)
        cap.append(e.capacity)
        costs.append(e.cost)
        adj[e.head].append(len(head))
        head.append(e.tail)
        cap.append(0)
        costs.append(-e.cost)
    value = total = 0
    while True:
        dist = [INF] * net.node_count
        dist[net.source] = 0
        parent = [-1] * net.node_count
        for _ in range(net.node_count):
            changed = False
            for u in range(net.node_count):
                if dist[u] == INF:
                    continue
                for eid in adj[u]:
                    if cap[eid] > 0 and dist[u] + costs[eid] < dist[head[eid]]:
                        dist[head[eid]] = dist[u] + costs[eid]
                        parent[head[eid]] = eid
                        changed = True
            if not changed:
                break
        if dist[net.sink] == INF:
            break
        push = None
        v = net.sink
        while v != net.source:
            eid = parent[v]
            push = cap[eid] if push is None else min(push, cap[eid])
            v = head[eid ^ 1]
        v = net.sink
        while v != net.source:
            eid = parent[v]
            cap[eid] -= push
            cap[eid ^ 1] += push
            v = head[eid ^ 1]
        value += push
        total += push * dist[net.sink]
    return value, total


def reference_ssp_edge_flows(net):
    """Oracle: the edge flows of successive shortest paths with Dijkstra on
    reduced costs, ties broken by edge order, written out as one function.

    This is the solver's loop as it stood before it moved into
    ``_Residual.shortest_paths``; the solver must keep its edge flows.
    """
    n = net.node_count
    head, cap, cost = [], [], []
    adj = [[] for _ in range(n)]
    for e in net.edges:
        adj[e.tail].append(len(head))
        head.append(e.head)
        cap.append(e.capacity)
        cost.append(e.cost)
        adj[e.head].append(len(head))
        head.append(e.tail)
        cap.append(0)
        cost.append(-e.cost)
    unreachable = 2 * n * max([1] + [e.cost for e in net.edges]) + 1
    pot = [0] * n
    while True:
        dist = [unreachable] * n
        dist[net.source] = 0
        parent = [-1] * n
        queue = [(0, net.source)]
        while queue:
            d, u = heapq.heappop(queue)
            if d > dist[u]:
                continue
            for eid in adj[u]:
                if cap[eid] <= 0:
                    continue
                v = head[eid]
                nd = d + cost[eid] + pot[u] - pot[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = eid
                    heapq.heappush(queue, (nd, v))
        if dist[net.sink] == unreachable:
            break
        for v in range(n):
            if dist[v] < unreachable:
                pot[v] += dist[v]
        path = []
        v = net.sink
        while v != net.source:
            path.append(parent[v])
            v = head[parent[v] ^ 1]
        push = min(cap[eid] for eid in path)
        for eid in path:
            cap[eid] -= push
            cap[eid ^ 1] += push
    return tuple(cap[2 * i + 1] for i in range(len(net.edges)))


@pytest.fixture(autouse=True)
def edge_flows_match_the_reference(monkeypatch):
    """Every ``min_cost_max_flow`` call in this module, on every network
    its tests build, must return ``reference_ssp_edge_flows``'s flows."""
    solver = gbb.flow.min_cost_max_flow
    checked = []

    def checking(net):
        flow = solver(net)
        assert flow.edge_flows == reference_ssp_edge_flows(net)
        checked.append(net)
        return flow

    monkeypatch.setitem(globals(), "min_cost_max_flow", checking)
    return checked


def random_dag_network(rng, max_nodes=12):
    """Random layered-ish DAG: edges only go to higher node ids."""
    n = rng.randint(4, max_nodes)
    source, sink = 0, n - 1
    edges = []
    for tail in range(n - 1):
        for h in range(tail + 1, n):
            if h == source or tail == sink:
                continue
            if rng.random() < 0.45:
                edges.append(
                    Edge(tail, h, rng.randint(0, 9), rng.randint(-9, 9) + 9)
                )
    if not edges:
        edges.append(Edge(source, sink, rng.randint(1, 9), 0))
    return FlowNetwork(node_count=n, source=source, sink=sink, edges=tuple(edges))


def test_single_edge():
    net = net_from_edges(2, 0, 1, [(0, 1, 7)])
    assert max_flow(net).value == 7


def test_hand_min_cut():
    # r->a 3, r->b 2, a->t 1, b->t 5: the cheap cut is {a->t, r->b}
    net = net_from_edges(4, 0, 3, [(0, 1, 3), (0, 2, 2), (1, 3, 1), (2, 3, 5)])
    flow = max_flow(net)
    assert flow.value == 3
    assert min_cut_capacity(net) == 3


def test_both_solvers_cancel_flow_on_the_first_shortest_path():
    # s=0 -> a=1 -> b=2 -> t=7 is the only 3-edge path and the cheapest, but
    # a maximum flow routes s-a-e-f-t and s-g-h-b-t: the second augmenting
    # path has to push back along a->b.
    net = net_from_edges(
        8,
        0,
        7,
        [
            (0, 1, 1, 0),
            (1, 2, 1, 0),
            (2, 7, 1, 0),
            (1, 3, 1, 1),
            (3, 4, 1, 1),
            (4, 7, 1, 1),
            (0, 5, 1, 1),
            (5, 6, 1, 1),
            (6, 2, 1, 1),
        ],
    )
    assert max_flow(net).value == min_cut_capacity(net) == 2
    flow = min_cost_max_flow(net)
    assert (flow.value, flow.cost) == (2, 6)
    assert flow.edge_flows[1] == 0


def test_fix_e1_transfer_network_value(fix_e1):
    from gbb.model import Allocation, group_partition
    from gbb.transfers import group_transfer_network

    alloc = Allocation({"b1": ("s1", "s1"), "b2": ("s1", "s1")})
    net = group_transfer_network(group_partition(fix_e1, alloc))
    assert max_flow(net).value == 1


def test_min_cost_prefers_cheaper_parallel_edge():
    net = net_from_edges(3, 0, 2, [(0, 1, 1, 0), (1, 2, 1, 4), (1, 2, 1, 6)])
    flow = min_cost_max_flow(net)
    assert flow.value == 1
    assert flow.cost == 4


def test_min_cost_on_fixture_assignment_networks(fix_e1, fix_e2):
    from gbb.swm import _AssignmentLayout

    from tests.test_swm import counts_of

    # Each cost is the market's largest valuation (10, then 9) less the
    # buyer's, so the assignments worth 16 and 24 cost 2 * 10 - 16 and
    # 3 * 9 - 24.
    net1 = _AssignmentLayout(fix_e1).network(counts_of(fix_e1, {("s1", "s1"): 2}))
    flow1 = min_cost_max_flow(net1)
    assert (flow1.value, flow1.cost) == (2, 4)

    net2 = _AssignmentLayout(fix_e2).network(
        counts_of(fix_e2, {("s1", "s1"): 2, ("s1", "s2"): 1})
    )
    flow2 = min_cost_max_flow(net2)
    assert (flow2.value, flow2.cost) == (3, 3)


def test_random_networks_against_oracles():
    rng = random.Random(2024)
    for _ in range(50):
        net = random_dag_network(rng)
        flow = max_flow(net)
        assert flow.value == min_cut_capacity(net)
        mc = min_cost_max_flow(net)
        assert mc.value == flow.value
        ref_value, ref_cost = reference_min_cost_max_flow(net)
        assert (mc.value, mc.cost) == (ref_value, ref_cost)
        for _ in range(4):
            sampled_value, sampled_cost = random_integral_max_flow(net, rng)
            assert sampled_value == mc.value
            assert mc.cost <= sampled_cost


def test_flows_are_integral_and_capacity_respecting():
    rng = random.Random(7)
    for _ in range(10):
        net = random_dag_network(rng)
        for flow in (max_flow(net), min_cost_max_flow(net)):
            assert all(isinstance(f, int) for f in flow.edge_flows)
            assert all(
                0 <= f <= e.capacity for f, e in zip(flow.edge_flows, net.edges)
            )
            # conservation everywhere but at the terminals
            for v in range(net.node_count):
                if v in (net.source, net.sink):
                    continue
                inflow = sum(
                    f for f, e in zip(flow.edge_flows, net.edges) if e.head == v
                )
                outflow = sum(
                    f for f, e in zip(flow.edge_flows, net.edges) if e.tail == v
                )
                assert inflow == outflow


def test_deterministic_repeat_runs():
    rng = random.Random(5)
    net = random_dag_network(rng)
    assert max_flow(net).edge_flows == max_flow(net).edge_flows
    assert min_cost_max_flow(net).edge_flows == min_cost_max_flow(net).edge_flows


def test_malformed_networks_rejected():
    with pytest.raises(ValueError, match="missing node"):
        net_from_edges(2, 0, 1, [(0, 5, 1)])
    with pytest.raises(ValueError, match="self-loop"):
        net_from_edges(2, 0, 1, [(1, 1, 1)])
    with pytest.raises(ValueError, match="negative capacity"):
        net_from_edges(2, 0, 1, [(0, 1, -2)])
    with pytest.raises(ValueError, match="out of range"):
        net_from_edges(2, 0, 4, [(0, 1, 1)])
    # negative costs are refused when the network is built, even on a
    # cycle the source cannot reach
    with pytest.raises(ValueError, match="negative cost"):
        net_from_edges(2, 0, 1, [(0, 1, 1, -1)])
    with pytest.raises(ValueError, match="negative cost"):
        net_from_edges(4, 0, 3, [(0, 3, 2, 5), (1, 2, 1, 1), (2, 1, 1, -1)])


def test_dijkstra_pops_nondecreasing_distances_within_a_round(monkeypatch):
    # The potentials keep every reduced cost nonnegative, so within one
    # round Dijkstra pops its heap in nondecreasing distance.  Without them
    # a reverse residual edge has a negative reduced cost, a node is pushed
    # below the last pop, and the search degrades to label correcting.
    import heapq
    import types

    import gbb.flow
    from gbb.generate import generate_instance
    from gbb.swm import _AssignmentLayout

    from tests.test_swm import enumerate_partitions

    pops = []

    def recording_heappop(heap):
        item = heapq.heappop(heap)
        pops.append(item)
        return item

    monkeypatch.setattr(
        gbb.flow,
        "heapq",
        types.SimpleNamespace(heappush=heapq.heappush, heappop=recording_heappop),
    )
    networks = 0
    for seed in range(24):
        market = generate_instance(
            buyers=2 + seed % 3, vendors=1 + seed % 2, items=1 + seed // 12, seed=seed
        )
        layout = _AssignmentLayout(market)
        for counts in enumerate_partitions(len(market.buyers), market.cell_count):
            net = layout.network(counts)
            pops.clear()
            min_cost_max_flow(net)
            # A round starts at the pop of (0, source).
            last = None
            for d, u in pops:
                if (d, u) != (0, net.source):
                    assert d >= last, (seed, counts, pops)
                last = d
            networks += 1
    assert networks == 1626


def test_min_cost_flows_in_this_module_are_checked_against_the_reference(
    edge_flows_match_the_reference,
):
    net = net_from_edges(3, 0, 2, [(0, 1, 2, 1), (1, 2, 2, 1), (0, 2, 1, 5)])
    assert min_cost_max_flow(net).edge_flows == (2, 2, 1)
    assert edge_flows_match_the_reference == [net]
