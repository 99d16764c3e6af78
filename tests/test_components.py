"""Tests for connected-component bookkeeping."""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.components import (
    ComponentStructure,
    component_labels,
    connected_components,
    customers_per_component,
)
from repro.network.graph import Network
from tests.conftest import build_line_network, build_two_component_network


class TestLabels:
    def test_single_component(self):
        g = build_line_network(5)
        labels = component_labels(g)
        assert len(set(labels)) == 1

    def test_two_components(self):
        g = build_two_component_network()
        labels = component_labels(g)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_isolated_nodes_get_own_component(self):
        g = Network(4, [(0, 1, 1.0)])
        labels = component_labels(g)
        assert len(set(labels.tolist())) == 3

    def test_directed_uses_weak_connectivity(self):
        g = Network(3, [(0, 1, 1.0), (2, 1, 1.0)], directed=True)
        labels = component_labels(g)
        assert len(set(labels.tolist())) == 1

    def test_empty_graph(self):
        g = Network(0, [])
        assert component_labels(g).size == 0


@st.composite
def sparse_networks(draw):
    """Undirected or directed networks, sparse enough to fall apart."""
    n = draw(st.integers(1, 30))
    directed = draw(st.booleans())
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda arc: arc[0] != arc[1]
            ),
            max_size=n,
        )
    )
    return Network(n, [(u, v, 1.0) for u, v in arcs], directed=directed)


@settings(max_examples=80, deadline=None)
@given(g=sparse_networks())
def test_property_labels_match_networkx_components(g):
    """Labels partition the nodes as networkx's (weakly) connected
    components do, numbered in the order of their smallest node."""
    labels = component_labels(g).tolist()
    members: dict[int, set[int]] = {}
    for node, label in enumerate(labels):
        members.setdefault(label, set()).add(node)
    reference = (
        nx.weakly_connected_components if g.directed else nx.connected_components
    )
    assert {frozenset(c) for c in members.values()} == {
        frozenset(c) for c in reference(g.to_networkx())
    }
    assert sorted(members) == list(range(len(members)))
    smallest = [min(members[label]) for label in sorted(members)]
    assert smallest == sorted(smallest)


class TestConnectedComponents:
    def test_partition_covers_all_nodes(self):
        g = build_two_component_network()
        comps = connected_components(g)
        assert sorted(np.concatenate(comps).tolist()) == list(range(6))
        assert len(comps) == 2


class TestStructure:
    def test_membership(self):
        g = build_two_component_network()
        s = ComponentStructure.build(g, customer_nodes=[0, 4, 5], facility_nodes=[2, 3])
        comp0 = int(component_labels(g)[0])
        comp1 = int(component_labels(g)[3])
        assert s.customers_in[comp0] == [0]
        assert sorted(s.customers_in[comp1]) == [1, 2]
        assert s.facilities_in[comp0] == [0]
        assert s.facilities_in[comp1] == [1]

    def test_populated_components(self):
        g = build_two_component_network()
        s = ComponentStructure.build(g, customer_nodes=[0], facility_nodes=[2, 3])
        assert len(s.populated_components()) == 1

    def test_customers_per_component(self):
        g = build_two_component_network()
        s = ComponentStructure.build(g, customer_nodes=[0, 1, 4], facility_nodes=[])
        counts = customers_per_component(s)
        assert sorted(counts.values()) == [1, 2]


class TestMinimumBudget:
    def test_single_component_exact(self):
        g = build_line_network(6)
        s = ComponentStructure.build(
            g, customer_nodes=[0, 1, 2, 3, 4], facility_nodes=[0, 2, 4]
        )
        # Capacities 2,2,2: need ceil(5/2) = 3 facilities.
        assert s.minimum_budget([2, 2, 2]) == 3
        # One big facility suffices.
        assert s.minimum_budget([5, 1, 1]) == 1

    def test_sums_across_components(self):
        g = build_two_component_network()
        s = ComponentStructure.build(
            g, customer_nodes=[0, 1, 3, 4], facility_nodes=[2, 5]
        )
        assert s.minimum_budget([2, 2]) == 2

    def test_insufficient_capacity_flagged(self):
        g = build_two_component_network()
        s = ComponentStructure.build(
            g, customer_nodes=[0, 1, 2], facility_nodes=[0]
        )
        # Capacity 2 < 3 customers: signalled as > l.
        assert s.minimum_budget([2]) > 1

    def test_component_without_candidates_flagged(self):
        g = build_two_component_network()
        s = ComponentStructure.build(
            g, customer_nodes=[0, 3], facility_nodes=[1]
        )
        assert s.minimum_budget([10]) > 1

    def test_empty_component_costs_nothing(self):
        g = build_two_component_network()
        s = ComponentStructure.build(g, customer_nodes=[0], facility_nodes=[1, 4])
        assert s.minimum_budget([1, 1]) == 1
