"""Tests for the min-cost max-flow substrate (vs networkx oracle)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.mincost import MinCostFlowNetwork, min_cost_max_flow


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            MinCostFlowNetwork(0)
        net = MinCostFlowNetwork(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 9, 1, 0.0)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1, 0.0)
        with pytest.raises(ValueError):
            min_cost_max_flow(net, 0, 0)

    def test_single_edge(self):
        net = MinCostFlowNetwork(2)
        net.add_edge(0, 1, 3, 2.0)
        result = min_cost_max_flow(net, 0, 1)
        assert result.flow_value == 3
        assert result.total_cost == pytest.approx(6.0)

    def test_prefers_cheap_path(self):
        net = MinCostFlowNetwork(4)
        net.add_edge(0, 1, 1, 10.0)
        net.add_edge(0, 2, 1, 1.0)
        net.add_edge(1, 3, 1, 0.0)
        net.add_edge(2, 3, 1, 0.0)
        # Only one unit needed? No — max flow is 2 here; check cost order.
        result = min_cost_max_flow(net, 0, 3)
        assert result.flow_value == 2
        assert result.total_cost == pytest.approx(11.0)

    def test_negative_costs_supported(self):
        net = MinCostFlowNetwork(3)
        net.add_edge(0, 1, 1, -5.0)
        net.add_edge(1, 2, 1, 1.0)
        result = min_cost_max_flow(net, 0, 2)
        assert result.flow_value == 1
        assert result.total_cost == pytest.approx(-4.0)

    def test_disconnected(self):
        net = MinCostFlowNetwork(3)
        net.add_edge(0, 1, 5, 1.0)
        result = min_cost_max_flow(net, 0, 2)
        assert result.flow_value == 0
        assert result.total_cost == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 24), st.integers(0, 2**31))
def test_matches_networkx(node_count, edge_count, seed):
    """Flow value matches Dinic-style max flow; cost matches networkx's
    max_flow_min_cost on integer-cost graphs."""
    rng = np.random.default_rng(seed)
    net = MinCostFlowNetwork(node_count)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(node_count))
    for _ in range(edge_count):
        tail, head = rng.integers(0, node_count, size=2)
        if tail == head:
            continue
        capacity = int(rng.integers(1, 6))
        cost = int(rng.integers(0, 10))
        net.add_edge(int(tail), int(head), capacity, float(cost))
        if graph.has_edge(int(tail), int(head)):
            # networkx's simple API dislikes parallel edges; merge them
            # only when costs coincide, otherwise skip this instance.
            if graph[int(tail)][int(head)]["weight"] != cost:
                return
            graph[int(tail)][int(head)]["capacity"] += capacity
        else:
            graph.add_edge(int(tail), int(head), capacity=capacity, weight=cost)

    source, sink = 0, node_count - 1
    expected_flow = (
        nx.maximum_flow_value(graph, source, sink) if graph.edges else 0
    )
    result = min_cost_max_flow(net, source, sink)
    assert result.flow_value == expected_flow
    if expected_flow:
        flow_dict = nx.max_flow_min_cost(graph, source, sink)
        expected_cost = nx.cost_of_flow(graph, flow_dict)
        assert result.total_cost == pytest.approx(expected_cost)
