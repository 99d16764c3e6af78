"""Equivalence tests pinning the workspace kernel to a reference loop.

The preallocated :class:`~repro.network.kernels.DijkstraWorkspace` must
produce *bit-identical* distances to the per-call textbook loop
``tests.conftest.reference_dijkstra`` -- same floats, valid parents, and
the same ``dijkstra.*`` counter totals -- on every graph shape the
solvers encounter: undirected, directed, and disconnected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.network.dijkstra import (
    distance_matrix,
    eccentricity_bound,
    multi_source_lengths,
    shortest_path,
    shortest_path_lengths,
)
from repro.network.graph import Network
from repro.network.incremental import NearestFacilityStream
from repro.network.kernels import DijkstraWorkspace, many_source_lengths, workspace_for
from repro.obs import metrics
from tests.conftest import (
    build_random_network,
    build_two_component_network,
    reference_dijkstra,
)


def build_random_directed_network(n: int, seed: int = 0) -> Network:
    """Random directed graph: each node gets a few outgoing arcs."""
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        for v in rng.choice(n, size=3, replace=False):
            v = int(v)
            if v != u:
                edges.append((u, v, float(rng.uniform(0.1, 2.0))))
    return Network(n, edges, directed=True)


def kernel_result(network, sources, **kwargs):
    """Run the kernel and expose (dist, parent, settled) arrays."""
    ws = workspace_for(network)
    ws.run(sources, **kwargs)
    return ws.dist_array(), ws.parent_array(), list(ws.settled())


def assert_parents_valid(network, dist, parent, sources):
    """Each non-source reached node's parent edge closes its distance."""
    lookup = {
        (u, v): w
        for u, v, w in zip(
            np.repeat(
                np.arange(network.n_nodes),
                np.diff(network.csr[0]),
            ),
            network.csr[1],
            network.csr[2],
            strict=True,
        )
    }
    source_set = {int(s) for s in sources}
    for v in range(network.n_nodes):
        if not np.isfinite(dist[v]) or v in source_set:
            assert parent[v] == -1 or v in source_set
            continue
        u = int(parent[v])
        assert u >= 0, f"reached node {v} has no parent"
        w = lookup[(u, v)]
        assert dist[v] == dist[u] + w


GRAPHS = [
    pytest.param(lambda: build_random_network(60, seed=3), id="undirected"),
    pytest.param(
        lambda: build_random_directed_network(50, seed=4), id="directed"
    ),
    pytest.param(lambda: build_two_component_network(), id="disconnected"),
]


class TestKernelMatchesLegacy:
    @pytest.mark.parametrize("make", GRAPHS)
    def test_single_source_bit_identical(self, make):
        network = make()
        for source in range(0, network.n_nodes, 7):
            ref = reference_dijkstra(network, [source])
            dist, parent, settled = kernel_result(network, [source])
            assert np.array_equal(ref.dist, dist)  # inf==inf, bitwise
            assert settled == ref.settled
            assert_parents_valid(network, dist, parent, [source])

    @pytest.mark.parametrize("make", GRAPHS)
    def test_multi_source_bit_identical(self, make):
        network = make()
        sources = list(range(0, network.n_nodes, 5))
        ref = reference_dijkstra(network, sources)
        dist, parent, settled = kernel_result(network, sources)
        assert np.array_equal(ref.dist, dist)
        assert settled == ref.settled
        assert_parents_valid(network, dist, parent, sources)

    @pytest.mark.parametrize("make", GRAPHS)
    def test_early_exit_and_radius(self, make):
        network = make()
        targets = set(range(0, network.n_nodes, 4))
        ref = reference_dijkstra(network, [0], targets=targets, radius=2.5)
        ws = workspace_for(network)
        ws.run([0], targets=targets, radius=2.5)
        for t in sorted(targets):
            assert ws.dist_of(t) == ref.dist[t]
        assert list(ws.settled()) == ref.settled

    @pytest.mark.parametrize("make", GRAPHS)
    def test_counter_totals_match(self, make):
        network = make()
        sources = [0, network.n_nodes - 1]

        ref_reg = metrics.Registry()
        with metrics.use(ref_reg):
            for s in sources:
                reference_dijkstra(network, [s])
        kernel_reg = metrics.Registry()
        ws = DijkstraWorkspace(network)
        with metrics.use(kernel_reg):
            for s in sources:
                ws.run([s])

        ref_counts = ref_reg.as_dict()
        kernel_counts = kernel_reg.as_dict()
        for key in (
            "dijkstra.runs",
            "dijkstra.pops",
            "dijkstra.relaxations",
            "dijkstra.settled",
        ):
            assert kernel_counts[key] == ref_counts[key]
        assert kernel_counts["dijkstra.runs"] == len(sources)

    def test_empty_target_set_stops_like_legacy(self):
        # Reference quirk: an *empty* target set stops after the
        # first settled node; the kernel's countdown must preserve it.
        network = build_random_network(30, seed=5)
        ref = reference_dijkstra(network, [0], targets=set())
        dist, _, settled = kernel_result(network, [0], targets=set())
        assert settled == ref.settled == [0]
        assert np.array_equal(ref.dist, dist)

    def test_max_settled(self):
        network = build_random_network(40, seed=6)
        ref = reference_dijkstra(network, [0], max_settled=7)
        _, _, settled = kernel_result(network, [0], max_settled=7)
        assert settled == ref.settled
        assert len(settled) == 7


class TestWorkspaceReuse:
    def test_generation_bumps_and_results_reset(self):
        network = build_two_component_network()
        ws = DijkstraWorkspace(network)
        g1 = ws.run([0])
        assert ws.dist_of(1) == 1.0
        assert ws.dist_of(3) == np.inf  # other component untouched
        g2 = ws.run([3])
        assert g2 == g1 + 1
        # Old run's entries are invalidated by the stamp, not cleared.
        assert ws.dist_of(0) == np.inf
        assert ws.dist_of(4) == 1.0
        assert ws.parent_of(0) == -1

    def test_workspace_for_is_cached_per_network(self):
        a = build_random_network(10, seed=0)
        b = build_random_network(10, seed=0)
        assert workspace_for(a) is workspace_for(a)
        assert workspace_for(a) is not workspace_for(b)

    def test_repeated_runs_stay_identical(self):
        network = build_random_network(50, seed=7)
        ws = DijkstraWorkspace(network)
        ws.run([2])
        first = ws.dist_array()
        for _ in range(3):
            ws.run([11])
            ws.run([2])
        assert np.array_equal(ws.dist_array(), first)


class TestManySourceLengths:
    def test_matrix_against_legacy_rows(self):
        network = build_random_network(45, seed=8)
        sources = [0, 9, 17, 44]
        targets = [3, 12, 30]
        got = many_source_lengths(
            network, [[s] for s in sources], targets=targets
        )
        assert got.shape == (4, 3)
        for i, s in enumerate(sources):
            ref = reference_dijkstra(network, [s], targets=set(targets))
            assert np.array_equal(got[i], ref.dist[targets])

    def test_full_rows_without_targets(self):
        network = build_two_component_network()
        got = many_source_lengths(network, [[0], [3], [0, 3]])
        assert got.shape == (3, network.n_nodes)
        assert np.array_equal(
            got[2], np.minimum(got[0], got[1])
        )  # multi-source = min over components


#: A 4-node path: an unchecked node -1 would index node 3.
CHAIN = Network(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


class TestNodeRangeChecks:
    @pytest.mark.parametrize("target", [-1, 9])
    def test_matrix_rejects_target_outside_network(self, target):
        with pytest.raises(GraphError, match=f"node {target} outside 0..3"):
            distance_matrix(CHAIN, [0], [target])

    @pytest.mark.parametrize("source", [-1, 4])
    def test_stream_rejects_source_outside_network(self, source):
        with pytest.raises(GraphError, match=f"node {source} outside 0..3"):
            NearestFacilityStream(CHAIN, source, [0, 3])


class TestEntryPointsDelegate:
    def test_distance_matrix_counts_one_run_per_source(self):
        network = build_random_network(30, seed=9)
        reg = metrics.Registry()
        with metrics.use(reg):
            distance_matrix(network, [0, 5], [1, 2, 3])
        assert reg.as_dict()["dijkstra.runs"] == 2

    def test_multi_source_lengths_matches_legacy(self):
        network = build_random_network(30, seed=10)
        sources = [1, 8, 21]
        got = multi_source_lengths(network, sources)
        ref = reference_dijkstra(network, sources)
        assert np.array_equal(got.dist, ref.dist)
        assert got.settled == ref.settled

    @pytest.mark.parametrize("make", GRAPHS)
    def test_shortest_path_lengths_matches_reference(self, make):
        network = make()
        targets = set(range(1, network.n_nodes, 6))
        for kwargs in ({}, {"radius": 1.5}, {"targets": targets}):
            got = shortest_path_lengths(network, 0, **kwargs)
            ref = reference_dijkstra(network, [0], **kwargs)
            assert np.array_equal(got.dist, ref.dist)
            assert got.settled == ref.settled
            assert_parents_valid(network, got.dist, got.parent, [0])

    def test_shortest_path_walks_reference_distance(self):
        network = build_random_network(30, seed=12)
        ref = reference_dijkstra(network, [3])
        distance, path = shortest_path(network, 3, 29)
        assert distance == ref.dist[29]
        assert path[0] == 3 and path[-1] == 29
        hops = sum(
            min(w for v, w in network.neighbors(a) if v == b)
            for a, b in zip(path, path[1:])
        )
        assert hops == pytest.approx(distance)

    def test_eccentricity_bound_matches_max_finite(self):
        network = build_random_network(35, seed=11)
        ref = reference_dijkstra(network, [0])
        finite = ref.dist[np.isfinite(ref.dist)]
        assert eccentricity_bound(network, 0) == float(finite.max())
