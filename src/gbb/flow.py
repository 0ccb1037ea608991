"""Integer max-flow and min-cost max-flow on small directed networks.

The solvers are deterministic by construction: augmenting paths are
shortest-first with ties resolved by edge insertion order, so identical
networks always produce identical flows (and identical downstream
transfer matrices and allocations).
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

    def dump(self) -> str:
        """One line per edge: ``from to cap cost tag``."""
        return "\n".join(
            f"{e.tail} {e.head} {e.capacity} {e.cost} {e.tag}" for e in self.edges
        )


class NetworkBuilder:
    """Incremental construction of an immutable FlowNetwork."""

    def __init__(self) -> None:
        self._node_count = 0
        self._edges: list[Edge] = []

    def add_node(self) -> int:
        node = self._node_count
        self._node_count += 1
        return node

    def add_edge(
        self, tail: int, head: int, capacity: int, cost: int = 0, tag: Any = None
    ) -> None:
        self._edges.append(Edge(tail, head, capacity, cost, tag))

    def build(self, source: int, sink: int) -> FlowNetwork:
        return FlowNetwork(
            node_count=self._node_count,
            source=source,
            sink=sink,
            edges=tuple(self._edges),
        )


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
        self.head: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for edge in net.edges:
            self.adj[edge.tail].append(len(self.head))
            self.head.append(edge.head)
            self.cap.append(edge.capacity)
            self.cost.append(edge.cost)
            self.adj[edge.head].append(len(self.head))
            self.head.append(edge.tail)
            self.cap.append(0)
            self.cost.append(-edge.cost)

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
        bottleneck = None
        v = sink
        while v != source:
            eid = parent_edge[v]
            if bottleneck is None or res.cap[eid] < bottleneck:
                bottleneck = res.cap[eid]
            v = res.head[eid ^ 1]
        v = sink
        while v != source:
            eid = parent_edge[v]
            res.cap[eid] -= bottleneck
            res.cap[eid ^ 1] += bottleneck
            v = res.head[eid ^ 1]
        value += bottleneck
    return res.extract(value)


def min_cost_max_flow(net: FlowNetwork) -> Flow:
    """Minimum-cost maximum integral flow via successive shortest paths.

    Negative edge costs are handled with node potentials, initialized by a
    FIFO label-correcting pass.  Successive shortest paths needs that pass
    to settle, so a network in which the source reaches a negative-cost
    cycle raises ``ValueError``.
    """
    res = _Residual(net)
    n = net.node_count
    source, sink = net.source, net.sink

    # ``unreachable`` is an integer above every label a reachable node can
    # get.  With C the largest |cost| and no negative cycle, a potential is
    # a shortest-path distance over at most n - 1 residual edges, so
    # |potential| <= (n - 1)C; a reduced distance is a distance minus a
    # potential, so it lies in [0, 2(n - 1)C]; a Dijkstra candidate is a
    # distance plus one edge minus a potential, at most (2n - 1)C, and a
    # first label in the label-correcting pass is at most nC.  A node that
    # pass leaves unlabelled stays unreachable: augmenting only adds
    # residual edges between nodes the source already reaches.
    unreachable = 2 * n * max([1] + [abs(edge.cost) for edge in net.edges]) + 1

    # Label-correcting initialization of potentials (shortest distances
    # from the source over positive-capacity edges).  Without a negative
    # cycle every node is queued at most n - 1 times.
    pot: list[int] = [unreachable] * n
    pot[source] = 0
    in_queue = [False] * n
    queued = [0] * n
    queue = [source]
    in_queue[source] = True
    queued[source] = 1
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        in_queue[u] = False
        du = pot[u]
        for eid in res.adj[u]:
            if res.cap[eid] <= 0:
                continue
            v = res.head[eid]
            nd = du + res.cost[eid]
            if nd < pot[v]:
                pot[v] = nd
                if not in_queue[v]:
                    queued[v] += 1
                    if queued[v] >= n:
                        raise ValueError(
                            f"negative-cost cycle through node {v}"
                        )
                    queue.append(v)
                    in_queue[v] = True

    value = 0
    while pot[sink] < unreachable:
        dist: list[int] = [unreachable] * n
        dist[source] = 0
        parent_edge = [-1] * n
        heap: list[tuple[int, int]] = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for eid in res.adj[u]:
                if res.cap[eid] <= 0:
                    continue
                v = res.head[eid]
                if pot[v] == unreachable:
                    continue
                nd = d + res.cost[eid] + pot[u] - pot[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent_edge[v] = eid
                    heapq.heappush(heap, (nd, v))
        if dist[sink] == unreachable:
            break
        for v in range(n):
            if dist[v] < unreachable:
                pot[v] += dist[v]
        bottleneck = None
        v = sink
        while v != source:
            eid = parent_edge[v]
            if bottleneck is None or res.cap[eid] < bottleneck:
                bottleneck = res.cap[eid]
            v = res.head[eid ^ 1]
        v = sink
        while v != source:
            eid = parent_edge[v]
            res.cap[eid] -= bottleneck
            res.cap[eid ^ 1] += bottleneck
            v = res.head[eid ^ 1]
        value += bottleneck
    return res.extract(value)
