"""Integer max-flow and min-cost max-flow on small directed networks.

Capacities and costs are nonnegative integers; ``FlowNetwork`` rejects a
negative one.

The solvers are deterministic by construction: augmenting paths are
shortest-first with ties resolved by edge insertion order, so identical
networks always produce identical flows.  ``max_flow`` routes the group
transfers; ``min_cost_max_flow`` is the tests' reference for the SWM
assignment kernel, and no allocation comes from it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    capacity: int
    cost: int = 0
    tag: Any = None


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    node_count: int
    source: int
    sink: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        for name, node in (("source", self.source), ("sink", self.sink)):
            if not 0 <= node < self.node_count:
                raise ValueError(f"{name} node {node} out of range")
        for edge in self.edges:
            if not (0 <= edge.tail < self.node_count and 0 <= edge.head < self.node_count):
                raise ValueError(f"edge {edge} references a missing node")
            if edge.tail == edge.head:
                raise ValueError(f"self-loop at node {edge.tail}")
            if edge.capacity < 0:
                raise ValueError(f"negative capacity on edge {edge}")
            if edge.cost < 0:
                raise ValueError(f"negative cost on edge {edge}")


@dataclass(frozen=True, eq=False)
class Flow:
    """An integral flow: per-edge values aligned with the network's edges."""

    network: FlowNetwork
    edge_flows: tuple[int, ...]
    value: int
    cost: int

    def tagged(self) -> Iterator[tuple[Any, int]]:
        """(tag, flow) pairs for every tagged edge."""
        for edge, f in zip(self.network.edges, self.edge_flows):
            if edge.tag is not None:
                yield edge.tag, f


class _Residual:
    """Adjacency-list residual graph; twin edge of 2i is 2i+1."""

    def __init__(self, net: FlowNetwork) -> None:
        self.net = net
        n = net.node_count
        edges = net.edges
        self.head = [v for e in edges for v in (e.head, e.tail)]
        self.cap = [c for e in edges for c in (e.capacity, 0)]
        self.cost = [c for e in edges for c in (e.cost, -e.cost)]
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for i, edge in enumerate(edges):
            self.adj[edge.tail].append(2 * i)
            self.adj[edge.head].append(2 * i + 1)

    def augment(self, parent_edge: list[int]) -> int:
        """Push the bottleneck along the path in ``parent_edge``; return it."""
        source, sink = self.net.source, self.net.sink
        bottleneck = None
        v = sink
        while v != source:
            eid = parent_edge[v]
            if bottleneck is None or self.cap[eid] < bottleneck:
                bottleneck = self.cap[eid]
            v = self.head[eid ^ 1]
        v = sink
        while v != source:
            eid = parent_edge[v]
            self.cap[eid] -= bottleneck
            self.cap[eid ^ 1] += bottleneck
            v = self.head[eid ^ 1]
        return bottleneck

    def extract(self, value: int) -> Flow:
        flows = tuple(self.cap[2 * i + 1] for i in range(len(self.net.edges)))
        cost = sum(f * e.cost for f, e in zip(flows, self.net.edges))
        return Flow(network=self.net, edge_flows=flows, value=value, cost=cost)


def max_flow(net: FlowNetwork) -> Flow:
    """Maximum integral flow via shortest augmenting paths (BFS order)."""
    res = _Residual(net)
    source, sink = net.source, net.sink
    value = 0
    while True:
        parent_edge = [-1] * net.node_count
        parent_edge[source] = -2
        queue = [source]
        qi = 0
        while qi < len(queue) and parent_edge[sink] == -1:
            u = queue[qi]
            qi += 1
            for eid in res.adj[u]:
                v = res.head[eid]
                if res.cap[eid] > 0 and parent_edge[v] == -1:
                    parent_edge[v] = eid
                    queue.append(v)
        if parent_edge[sink] == -1:
            break
        value += res.augment(parent_edge)
    return res.extract(value)


def min_cost_max_flow(net: FlowNetwork) -> Flow:
    """Minimum-cost maximum integral flow via successive shortest paths.

    Edge costs are nonnegative (``FlowNetwork`` rejects others), so the
    node potentials start at zero and each round's Dijkstra distances keep
    every reduced cost nonnegative.
    """
    res = _Residual(net)
    heappush, heappop = heapq.heappush, heapq.heappop
    adj, head, cap, cost = res.adj, res.head, res.cap, res.cost
    n = net.node_count
    source, sink = net.source, net.sink
    # An integer above every Dijkstra candidate: with C the largest cost, a
    # potential lies in [0, (n - 1)C] and a reduced distance in
    # [0, (n - 1)C], so a candidate is at most (2n - 1)C.
    unreachable = 2 * n * max([1, *cost]) + 1
    pot = [0] * n
    value = 0
    while True:
        dist = [unreachable] * n
        dist[source] = 0
        parent_edge = [-1] * n
        heap = [(0, source)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            base = d + pot[u]
            for eid in adj[u]:
                if cap[eid] <= 0:
                    continue
                v = head[eid]
                nd = base + cost[eid] - pot[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent_edge[v] = eid
                    heappush(heap, (nd, v))
        if dist[sink] == unreachable:
            break
        pot = [p + d if d < unreachable else p for p, d in zip(pot, dist)]
        value += res.augment(parent_edge)
    return res.extract(value)
