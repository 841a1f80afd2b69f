"""Minimum-cost maximum-flow (successive shortest paths with SPFA).

Test oracle for the weighted-flow baseline
(:mod:`repro.core.baselines.wflow`): among all maximum flows, find one of
minimum total cost; WFLOW's Kuhn greedy must reach the same objective
(``tests/test_extra_baselines.py``), and networkx checks this oracle in
turn (``tests/test_mincost.py``). Costs are floats (negated qualities), capacities are
integers; negative costs are allowed — SPFA (Bellman-Ford with a queue)
handles them, and the successive-shortest-path invariant keeps the
residual network free of negative cycles.

Scale: the CA-SC networks are shallow (source -> workers -> tasks ->
sink) with unit worker capacities, so each augmentation pushes at least
one unit along a 3-edge path; complexity is ``O(F * V * E)`` worst case
but far lower in practice here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["MinCostEdge", "MinCostFlowNetwork", "min_cost_max_flow", "MinCostResult"]

_INF = float("inf")


@dataclass(slots=True)
class MinCostEdge:
    """A directed edge with capacity, unit cost and residual twin."""

    head: int
    capacity: int
    cost: float
    flow: int = 0
    reverse_index: int = -1
    is_forward: bool = True

    @property
    def residual(self) -> int:
        return self.capacity - self.flow


@dataclass
class MinCostFlowNetwork:
    """Adjacency-list network for :func:`min_cost_max_flow`."""

    node_count: int
    edges: list[MinCostEdge] = field(default_factory=list)
    adjacency: list[list[int]] = field(init=False)

    def __post_init__(self) -> None:
        if self.node_count <= 0:
            raise ValueError(f"node_count must be positive, got {self.node_count}")
        self.adjacency = [[] for _ in range(self.node_count)]

    def add_edge(self, tail: int, head: int, capacity: int, cost: float) -> int:
        """Add ``tail -> head`` with the given capacity and unit cost.

        The residual twin carries cost ``-cost``. Returns the forward
        edge's index.
        """
        for node in (tail, head):
            if not 0 <= node < self.node_count:
                raise ValueError(f"node {node} out of range [0, {self.node_count})")
        if capacity < 0 or int(capacity) != capacity:
            raise ValueError(f"capacity must be a non-negative integer: {capacity}")
        forward = MinCostEdge(head=head, capacity=int(capacity), cost=float(cost))
        backward = MinCostEdge(
            head=tail, capacity=0, cost=-float(cost), is_forward=False
        )
        forward_index = len(self.edges)
        forward.reverse_index = forward_index + 1
        backward.reverse_index = forward_index
        self.edges.append(forward)
        self.edges.append(backward)
        self.adjacency[tail].append(forward_index)
        self.adjacency[head].append(forward_index + 1)
        return forward_index


@dataclass(frozen=True)
class MinCostResult:
    """Value and cost of a min-cost max-flow computation."""

    flow_value: int
    total_cost: float


def min_cost_max_flow(
    network: MinCostFlowNetwork, source: int, sink: int
) -> MinCostResult:
    """Compute a maximum flow of minimum total cost, in place.

    Repeatedly finds a cheapest augmenting path with SPFA and saturates
    it; stops when the sink is unreachable in the residual network.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    total_flow = 0
    total_cost = 0.0

    while True:
        distance = [_INF] * network.node_count
        in_queue = [False] * network.node_count
        parent_edge = [-1] * network.node_count
        distance[source] = 0.0
        queue: deque[int] = deque([source])
        in_queue[source] = True

        while queue:
            node = queue.popleft()
            in_queue[node] = False
            for edge_index in network.adjacency[node]:
                edge = network.edges[edge_index]
                if edge.residual <= 0:
                    continue
                candidate = distance[node] + edge.cost
                if candidate < distance[edge.head] - 1e-15:
                    distance[edge.head] = candidate
                    parent_edge[edge.head] = edge_index
                    if not in_queue[edge.head]:
                        queue.append(edge.head)
                        in_queue[edge.head] = True

        if distance[sink] == _INF:
            break

        # Bottleneck along the cheapest path.
        bottleneck = None
        node = sink
        while node != source:
            edge = network.edges[parent_edge[node]]
            residual = edge.residual
            bottleneck = residual if bottleneck is None else min(bottleneck, residual)
            node = network.edges[edge.reverse_index].head
        assert bottleneck is not None and bottleneck > 0

        node = sink
        while node != source:
            edge_index = parent_edge[node]
            edge = network.edges[edge_index]
            edge.flow += bottleneck
            network.edges[edge.reverse_index].flow -= bottleneck
            node = network.edges[edge.reverse_index].head

        total_flow += bottleneck
        total_cost += bottleneck * distance[sink]

    return MinCostResult(flow_value=total_flow, total_cost=total_cost)
