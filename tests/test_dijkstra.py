"""Tests for Dijkstra variants, cross-checked against networkx."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.network.dijkstra import (
    distance_matrix,
    eccentricity_bound,
    multi_source_lengths,
    shortest_path,
    shortest_path_lengths,
)
from repro.network.graph import Network
from tests.conftest import (
    build_grid_network,
    build_line_network,
    build_random_network,
    build_two_component_network,
)


def reference_lengths(network: Network, source: int) -> dict[int, float]:
    return nx.single_source_dijkstra_path_length(
        network.to_networkx(), source, weight="weight"
    )


class TestSingleSource:
    def test_line_distances(self):
        g = build_line_network(5)
        result = shortest_path_lengths(g, 0)
        assert list(result.dist) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_matches_networkx_on_random_graphs(self):
        for seed in range(5):
            g = build_random_network(50, seed=seed)
            ref = reference_lengths(g, 0)
            result = shortest_path_lengths(g, 0)
            for v in range(g.n_nodes):
                if v in ref:
                    assert result.dist[v] == pytest.approx(ref[v])
                else:
                    assert math.isinf(result.dist[v])

    def test_unreachable_is_inf(self):
        g = build_two_component_network()
        result = shortest_path_lengths(g, 0)
        assert math.isinf(result.dist[4])
        assert np.isfinite(result.dist[2])

    def test_settled_in_distance_order(self):
        g = build_random_network(40, seed=3)
        result = shortest_path_lengths(g, 0)
        dists = [result.dist[v] for v in result.settled]
        assert dists == sorted(dists)

    def test_invalid_source(self):
        g = build_line_network(3)
        with pytest.raises(GraphError):
            shortest_path_lengths(g, 99)

    def test_radius_bound(self):
        g = build_line_network(10)
        result = shortest_path_lengths(g, 0, radius=3.0)
        assert np.isfinite(result.dist[3])
        assert math.isinf(result.dist[5])

    def test_targets_early_exit(self):
        g = build_line_network(100)
        result = shortest_path_lengths(g, 0, targets=[3])
        assert result.dist[3] == pytest.approx(3.0)
        # The search must not have settled the far end.
        assert len(result.settled) < 100


class TestPathRecovery:
    def test_path_on_line(self):
        g = build_line_network(5)
        dist, path = shortest_path(g, 0, 4)
        assert dist == pytest.approx(4.0)
        assert path == [0, 1, 2, 3, 4]

    def test_path_matches_networkx(self):
        g = build_random_network(40, seed=7)
        dist, path = shortest_path(g, 0, 20)
        ref = nx.dijkstra_path_length(g.to_networkx(), 0, 20)
        assert dist == pytest.approx(ref)
        # Path must be contiguous and have matching length.
        total = 0.0
        nxg = g.to_networkx()
        for u, v in zip(path, path[1:], strict=False):
            total += nxg[u][v]["weight"]
        assert total == pytest.approx(dist)

    def test_no_path_raises(self):
        g = build_two_component_network()
        with pytest.raises(GraphError, match="no path"):
            shortest_path(g, 0, 5)

    def test_source_equals_target(self):
        g = build_grid_network(3, 3)
        assert shortest_path(g, 4, 4) == (0.0, [4])

    def test_invalid_target_raises(self):
        # A negative target must not wrap around to the last node.
        g = build_grid_network(3, 3)
        for target in (-1, 99):
            with pytest.raises(GraphError, match="outside 0..8"):
                shortest_path(g, 0, target)

    def test_path_to_unreached_raises(self):
        g = build_two_component_network()
        result = shortest_path_lengths(g, 0)
        with pytest.raises(GraphError):
            result.path_to(4)


class TestMultiSource:
    def test_nearest_source_distances(self):
        g = build_line_network(7)
        result = multi_source_lengths(g, [0, 6])
        assert result.dist[3] == pytest.approx(3.0)
        assert result.dist[5] == pytest.approx(1.0)

    def test_empty_sources(self):
        g = build_line_network(3)
        result = multi_source_lengths(g, [])
        assert all(math.isinf(d) for d in result.dist)

    def test_matches_min_over_single_sources(self):
        g = build_random_network(40, seed=11)
        sources = [0, 5, 17]
        combined = multi_source_lengths(g, sources).dist
        singles = [shortest_path_lengths(g, s).dist for s in sources]
        expected = np.minimum.reduce(singles)
        assert np.allclose(
            combined[np.isfinite(expected)], expected[np.isfinite(expected)]
        )


class TestDistanceMatrix:
    def test_matrix_entries(self):
        g = build_line_network(5)
        mat = distance_matrix(g, [0, 4], [1, 3])
        assert mat[0, 0] == pytest.approx(1.0)
        assert mat[0, 1] == pytest.approx(3.0)
        assert mat[1, 0] == pytest.approx(3.0)
        assert mat[1, 1] == pytest.approx(1.0)

    def test_unreachable_inf(self):
        g = build_two_component_network()
        mat = distance_matrix(g, [0], [4])
        assert math.isinf(mat[0, 0])

    def test_matches_networkx(self):
        g = build_random_network(30, seed=2)
        sources, targets = [1, 2], [10, 20, 25]
        mat = distance_matrix(g, sources, targets)
        for i, s in enumerate(sources):
            ref = reference_lengths(g, s)
            for j, t in enumerate(targets):
                if t in ref:
                    assert mat[i, j] == pytest.approx(ref[t])
                else:
                    assert math.isinf(mat[i, j])


class TestEccentricity:
    def test_line_eccentricity(self):
        g = build_line_network(5)
        assert eccentricity_bound(g, 0) == pytest.approx(4.0)

    def test_ignores_unreachable(self):
        g = build_two_component_network()
        bound = eccentricity_bound(g, 0)
        assert np.isfinite(bound)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), source=st.integers(0, 24))
def test_property_dijkstra_matches_networkx(seed, source):
    """Single-source distances agree with networkx on random graphs."""
    g = build_random_network(25, seed=seed % 50)
    ref = reference_lengths(g, source)
    result = shortest_path_lengths(g, source)
    for v in range(g.n_nodes):
        if v in ref:
            assert abs(result.dist[v] - ref[v]) < 1e-9
        else:
            assert math.isinf(result.dist[v])
