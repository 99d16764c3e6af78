"""Tests for the Network graph representation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.instances import clustered_instance, uniform_instance
from repro.datagen.urban import grid_city
from repro.errors import GraphError
from repro.network.graph import Network
from tests.conftest import build_grid_network, build_line_network


class TestConstruction:
    def test_basic_construction(self):
        g = Network(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert g.n_nodes == 3
        assert g.n_edges == 2
        assert not g.directed

    def test_empty_graph(self):
        g = Network(0, [])
        assert g.n_nodes == 0
        assert g.n_edges == 0

    def test_isolated_nodes(self):
        g = Network(5, [(0, 1, 1.0)])
        assert g.degree(4) == 0
        assert g.degree(0) == 1

    def test_negative_n_nodes_rejected(self):
        with pytest.raises(GraphError):
            Network(-1, [])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError, match="outside"):
            Network(2, [(0, 2, 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Network(2, [(1, 1, 1.0)])

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphError, match="weight"):
            Network(2, [(0, 1, 0.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError, match="weight"):
            Network(2, [(0, 1, -3.0)])

    def test_nan_weight_rejected(self):
        with pytest.raises(GraphError, match="weight"):
            Network(2, [(0, 1, float("nan"))])

    def test_inf_weight_rejected(self):
        with pytest.raises(GraphError, match="weight"):
            Network(2, [(0, 1, float("inf"))])

    def test_first_bad_edge_in_input_order_reported(self):
        with pytest.raises(GraphError, match="self-loop at node 1"):
            Network(3, [(0, 1, 1.0), (1, 1, 1.0), (0, 9, 1.0)])
        with pytest.raises(GraphError, match=r"edge \(0, 9\) references"):
            Network(3, [(0, 1, 1.0), (0, 9, 1.0), (1, 1, -1.0)])

    def test_coords_shape_enforced(self):
        with pytest.raises(GraphError, match="coords"):
            Network(3, [(0, 1, 1.0)], coords=np.zeros((2, 2)))

    def test_parallel_edges_allowed(self):
        g = Network(2, [(0, 1, 1.0), (0, 1, 2.0)])
        assert g.n_edges == 2
        assert g.degree(0) == 2


class TestAccessors:
    def test_neighbors_undirected_both_ways(self):
        g = Network(3, [(0, 1, 1.5)])
        assert list(g.neighbors(0)) == [(1, 1.5)]
        assert list(g.neighbors(1)) == [(0, 1.5)]

    def test_neighbors_directed_one_way(self):
        g = Network(3, [(0, 1, 1.5)], directed=True)
        assert list(g.neighbors(0)) == [(1, 1.5)]
        assert list(g.neighbors(1)) == []

    def test_degree_counts(self):
        g = build_grid_network(3, 3)
        assert g.degree(4) == 4  # center
        assert g.degree(0) == 2  # corner

    def test_edges_iterates_input_edges(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0)]
        g = Network(3, edges)
        assert sorted(g.edges()) == sorted(edges)

    def test_edge_lengths(self):
        g = Network(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert sorted(g.edge_lengths()) == [1.0, 2.0]

    def test_node_range_check(self):
        g = Network(2, [(0, 1, 1.0)])
        with pytest.raises(GraphError):
            g.degree(5)
        with pytest.raises(GraphError):
            list(g.neighbors(-1))

    def test_coords_missing_raises(self):
        g = Network(2, [(0, 1, 1.0)])
        assert not g.has_coords
        with pytest.raises(GraphError, match="coordinates"):
            _ = g.coords

    def test_euclidean(self):
        g = build_line_network(3, spacing=2.0)
        assert g.euclidean(0, 2) == pytest.approx(4.0)

    def test_repr(self):
        g = Network(2, [(0, 1, 1.0)])
        assert "n_nodes=2" in repr(g)


class TestStats:
    def test_stats_line(self):
        g = build_line_network(4)
        stats = g.stats()
        assert stats.n_nodes == 4
        assert stats.n_edges == 3
        assert stats.max_degree == 2
        assert stats.avg_degree == pytest.approx(1.5)
        assert stats.avg_edge_length == pytest.approx(1.0)
        assert stats.n_components == 1

    def test_stats_disconnected(self):
        g = Network(4, [(0, 1, 1.0)])
        assert g.stats().n_components == 3

    def test_stats_as_row(self):
        row = build_line_network(3).stats().as_row()
        assert row["nodes"] == 3
        assert row["edges"] == 2
        assert "avg_degree" in row


class TestNetworkxInterop:
    def test_round_trip_undirected(self):
        g = build_grid_network(3, 3)
        back = Network.from_networkx(g.to_networkx())
        assert back.n_nodes == g.n_nodes
        assert back.n_edges == g.n_edges
        assert sorted(back.edges()) == sorted(g.edges())
        assert np.allclose(back.coords, g.coords)

    def test_round_trip_directed(self):
        g = Network(3, [(0, 1, 1.0), (2, 1, 2.0)], directed=True)
        back = Network.from_networkx(g.to_networkx())
        assert back.directed
        assert sorted(back.edges()) == sorted(g.edges())

    def test_from_networkx_rejects_sparse_labels(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(0, 5, weight=1.0)
        with pytest.raises(GraphError, match="dense"):
            Network.from_networkx(g)

    def test_from_networkx_default_weight(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from([0, 1])
        g.add_edge(0, 1)
        net = Network.from_networkx(g)
        assert list(net.edges()) == [(0, 1, 1.0)]


class TestCsr:
    def test_csr_arrays_consistent(self):
        g = build_grid_network(3, 3)
        indptr, indices, weights = g.csr
        assert indptr[-1] == len(indices) == len(weights)
        # Every arc's reverse exists in an undirected graph.
        arcs = set()
        for u in range(g.n_nodes):
            for pos in range(indptr[u], indptr[u + 1]):
                arcs.add((u, int(indices[pos])))
        assert all((v, u) in arcs for (u, v) in arcs)


class TestFingerprints:
    """Pinned adjacency hashes: the CSR build must stay byte-identical."""

    @pytest.mark.parametrize(
        ("build", "expected"),
        [
            pytest.param(
                lambda: uniform_instance(256, seed=0).network,
                "eb7eb70a986d0345365d2387945151d54cef96e1",
                id="uniform-256",
            ),
            pytest.param(
                lambda: uniform_instance(2048, seed=0).network,
                "262599fde7974553a5cd4696c9feebc5f9d9d3f2",
                id="uniform-2048",
            ),
            pytest.param(
                lambda: clustered_instance(1024, seed=0).network,
                "5dcf756ceb7a41b8da4f8d0c56c7048cfa423a4c",
                id="clustered-1024",
            ),
            pytest.param(
                lambda: grid_city(71, 71, seed=0),
                "c5d7a3a319d456f75ff2a67b94b68180d7ab936e",
                id="grid-71x71",
            ),
        ],
    )
    def test_fingerprint_pinned(self, build, expected):
        assert build().fingerprint == expected

    @pytest.mark.parametrize("directed", [False, True])
    def test_csr_matches_counting_sort_reference(self, directed):
        # Random multigraph: parallel edges and both orientations occur.
        rng = np.random.default_rng(7)
        n = 30
        pairs = rng.integers(0, n, size=(400, 2))
        edges = [
            (int(u), int(v), float(rng.uniform(0.5, 3.0)))
            for u, v in pairs
            if u != v
        ]
        got = Network(n, edges, directed=directed).csr
        want = reference_csr(n, edges, directed)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_csr(n, edges, directed):
    """The per-arc counting sort the vectorized build must reproduce."""
    arcs = list(edges)
    if not directed:
        arcs += [(v, u, w) for u, v, w in edges]
    indptr = np.zeros(n + 1, dtype=np.int64)
    for u, _, _ in arcs:
        indptr[u + 1] += 1
    indptr = np.cumsum(indptr)
    indices = np.empty(len(arcs), dtype=np.int64)
    weights = np.empty(len(arcs), dtype=np.float64)
    cursor = indptr[:-1].copy()
    for u, v, w in arcs:
        indices[cursor[u]] = v
        weights[cursor[u]] = w
        cursor[u] += 1
    return indptr, indices, weights
