"""Contraction-hierarchy correctness: CH results must be bit-identical.

The CH tier's contract is the same as the ALT oracle's and the distance
cache's: every observable output -- point-to-point queries, many-to-many
``distance_block`` entries, facility-stream emission order -- must be
*bit-identical* to the kernel Dijkstra path, because solvers compare and
accumulate these floats and a one-ulp divergence changes tie-breaking.
The property suite drives randomized directed, disconnected, and
parallel-edge graphs (zero-weight edges are rejected by ``Network``
itself, pinned below) against :class:`DijkstraWorkspace` ground truth;
structured adversarial graphs are pinned as explicit ``@example``
regressions.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.network import ch as ch_mod
from repro.network import oracle as oracle_mod
from repro.network.ch import CHFacilityStream, ContractionHierarchy
from repro.network.graph import Network
from repro.network.incremental import NearestFacilityStream, StreamPool
from repro.network.kernels import many_source_lengths, workspace_for
from repro.obs import metrics
from tests.conftest import (
    build_random_instance,
    build_random_network,
    build_two_component_network,
    drain_checking_bound,
    filtered_bound_probe,
    frontier_bound_probe,
)

INF = math.inf


# ----------------------------------------------------------------------
# Graph strategies and pinned adversarial examples
# ----------------------------------------------------------------------
#: Tie-prone weights (unit grids produce many equal-length paths, the
#: hardest case for bit-identical tie unpacking) mixed with arbitrary
#: positive floats.
_weights = st.one_of(
    st.sampled_from([0.5, 1.0, 1.0, 2.0]),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)


@st.composite
def random_networks(draw) -> Network:
    """Random small graphs: directed or not, parallel edges, islands."""
    n = draw(st.integers(min_value=2, max_value=16))
    directed = draw(st.booleans())
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), _weights
            ),
            max_size=3 * n,
        )
    )
    edges = [(u, v, w) for u, v, w in edges if u != v]
    return Network(n, edges, directed=directed)


#: Parallel edges: the cheaper duplicate must win on both paths.
_PARALLEL = Network(
    4,
    [(0, 1, 2.0), (0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.5), (2, 3, 1.0)],
)

#: Two islands: cross-component entries must be inf, not garbage.
_ISLANDS = Network(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])

#: A unit 2x2 grid: every opposite corner has two exactly-tied paths,
#: so the unpacked winner must reproduce the kernel's tie resolution.
_TIED = Network(
    4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)]
)

#: Directed asymmetric triangle: reachability is one-way.
_ONEWAY = Network(
    3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 10.0)], directed=True
)


def _kernel_matrix(network: Network) -> np.ndarray:
    """Ground-truth all-pairs matrix straight off the kernel workspace."""
    nodes = list(range(network.n_nodes))
    return many_source_lengths(
        network,
        [[s] for s in nodes],
        targets=nodes,
        workspace=workspace_for(network),
    )


class TestBitIdentityProperties:
    @settings(max_examples=60, deadline=None)
    @given(network=random_networks())
    @example(network=_PARALLEL)
    @example(network=_ISLANDS)
    @example(network=_TIED)
    @example(network=_ONEWAY)
    def test_query_matches_kernel_on_all_pairs(self, network):
        expected = _kernel_matrix(network)
        hierarchy = ContractionHierarchy.build(network)
        n = network.n_nodes
        for s in range(n):
            for t in range(n):
                got = hierarchy.query(s, t)
                want = float(expected[s, t])
                assert got == want, (s, t, got, want)

    @settings(max_examples=60, deadline=None)
    @given(network=random_networks())
    @example(network=_PARALLEL)
    @example(network=_ISLANDS)
    @example(network=_TIED)
    @example(network=_ONEWAY)
    def test_distance_block_matches_kernel(self, network):
        expected = _kernel_matrix(network)
        hierarchy = ContractionHierarchy.build(network)
        nodes = list(range(network.n_nodes))
        block = hierarchy.distance_block([[s] for s in nodes], nodes)
        assert np.array_equal(block, expected)

    @settings(max_examples=30, deadline=None)
    @given(network=random_networks(), radius=st.floats(0.5, 6.0))
    def test_distance_block_radius_matches_kernel(self, network, radius):
        nodes = list(range(network.n_nodes))
        expected = many_source_lengths(
            network,
            [[s] for s in nodes],
            targets=nodes,
            radius=radius,
            workspace=workspace_for(network),
        )
        hierarchy = ContractionHierarchy.build(network)
        block = hierarchy.distance_block(
            [[s] for s in nodes], nodes, radius=radius
        )
        assert np.array_equal(block, expected)

    @settings(max_examples=30, deadline=None)
    @given(network=random_networks())
    def test_multi_source_groups_match_kernel(self, network):
        n = network.n_nodes
        groups = [list(range(n)), [0], list(range(0, n, 2))]
        targets = list(range(n))
        expected = many_source_lengths(
            network, groups, targets=targets, workspace=workspace_for(network)
        )
        hierarchy = ContractionHierarchy.build(network)
        block = hierarchy.distance_block(groups, targets)
        assert np.array_equal(block, expected)

    def test_zero_weight_edges_rejected_upstream(self):
        # Network refuses non-positive weights, so the hierarchy never
        # has to witness zero-weight shortcuts -- pin the guard that the
        # property suite relies on.
        with pytest.raises(GraphError):
            Network(3, [(0, 1, 0.0), (1, 2, 1.0)])
        with pytest.raises(GraphError):
            Network(3, [(0, 1, -1.0)])


class TestStreamEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_stream_matches_kernel_stream(self, seed):
        network = build_random_network(40, seed=seed)
        rng = np.random.default_rng(seed + 50)
        facilities = sorted(int(v) for v in rng.choice(40, 8, replace=False))
        hierarchy = ContractionHierarchy.build(network)
        for source in (0, 7, 23):
            kernel = NearestFacilityStream(network, source, facilities)
            fast = CHFacilityStream(hierarchy, source, facilities)
            for rank in range(len(facilities) + 1):
                assert kernel.facility_at(rank) == fast.facility_at(rank)

    def test_stream_pool_dispatches_to_ch(self):
        network = build_random_network(30, seed=2)
        hierarchy = ContractionHierarchy.build(network)
        with oracle_mod.use(hierarchy):
            pool = StreamPool(network, [1, 5, 9])
            stream = pool.stream_for(0)
        assert isinstance(stream, CHFacilityStream)

    def test_frontier_lower_bound_never_exceeds_next_emission(self):
        network = build_random_network(30, seed=4)
        hierarchy = ContractionHierarchy.build(network)
        facilities = [3, 11, 19, 27]
        candidates = range(1, 30, 2)
        with oracle_mod.use(hierarchy):
            ch_pool = StreamPool(network, candidates)
        kernel_pool = StreamPool(network, candidates)
        probes = {
            "ch": frontier_bound_probe(
                CHFacilityStream(hierarchy, 0, facilities)
            ),
            "kernel": frontier_bound_probe(
                NearestFacilityStream(network, 0, facilities)
            ),
            # Filtered: the bound stays below the next *allowed* emission.
            "filtered-ch": filtered_bound_probe(ch_pool, 0, facilities),
            "filtered-kernel": filtered_bound_probe(kernel_pool, 0, facilities),
        }
        for kind, probe in probes.items():
            assert drain_checking_bound(*probe) == len(facilities), kind

    def test_exhausted_on_island_source(self):
        stream = CHFacilityStream(
            ContractionHierarchy.build(_ISLANDS), 5, [0, 1, 3]
        )
        assert stream.facility_at(0) is None


class TestBuildAndPersistence:
    def test_build_is_deterministic(self):
        network = build_random_network(50, seed=7)
        a = ContractionHierarchy.build(network)
        b = ContractionHierarchy.build(network)
        assert a.info() == b.info()

    def test_save_load_round_trip(self, tmp_path):
        network = build_random_network(40, seed=3)
        hierarchy = ContractionHierarchy.build(network)
        path = str(tmp_path / "ch.npz")
        hierarchy.save(path)
        loaded = ContractionHierarchy.load(path, network)
        assert loaded is not None
        assert loaded.fingerprint == network.fingerprint
        expected = _kernel_matrix(network)
        nodes = list(range(network.n_nodes))
        block = loaded.distance_block([[s] for s in nodes], nodes)
        assert np.array_equal(block, expected)

    def test_load_rejects_corrupt_and_mismatched(self, tmp_path):
        network = build_random_network(20, seed=0)
        other = build_random_network(20, seed=1)
        path = str(tmp_path / "ch.npz")
        ContractionHierarchy.build(network).save(path)
        assert ContractionHierarchy.load(path, other) is None
        assert ContractionHierarchy.load(str(tmp_path / "no.npz")) is None
        with open(path, "wb") as fh:
            fh.write(b"not a zip")
        assert ContractionHierarchy.load(path, network) is None

    def test_load_or_build_counts_hits_and_misses(self, tmp_path):
        network = build_random_network(25, seed=5)
        reg = metrics.Registry()
        with metrics.use(reg):
            ch_mod.load_or_build(network, str(tmp_path))
            ch_mod.load_or_build(network, str(tmp_path))
        counts = reg.as_dict()
        assert counts["oracle.cache_misses"] == 1
        assert counts["oracle.cache_hits"] == 1
        assert counts["ch.shortcuts"] >= 0

    def test_bind_rejects_foreign_network(self):
        network = build_random_network(20, seed=0)
        other = build_random_network(20, seed=1)
        hierarchy = ContractionHierarchy.build(network)
        with pytest.raises(GraphError):
            hierarchy.bind(other)

    def test_query_bounds_checked(self):
        hierarchy = ContractionHierarchy.build(build_random_network(10))
        with pytest.raises(GraphError):
            hierarchy.query(0, 10)
        with pytest.raises(GraphError):
            hierarchy.query(-1, 0)

    def test_pickle_round_trip_drops_caches_only(self):
        network = build_random_network(30, seed=6)
        hierarchy = ContractionHierarchy.build(network)
        expected = _kernel_matrix(network)
        clone = pickle.loads(pickle.dumps(hierarchy))
        nodes = list(range(network.n_nodes))
        block = clone.distance_block([[s] for s in nodes], nodes)
        assert np.array_equal(block, expected)

    def test_info_reports_shortcuts_and_degree(self):
        network = build_random_network(40, seed=1)
        doc = ContractionHierarchy.build(network).info()
        assert doc["kind"] == "ch"
        assert doc["n_shortcuts"] >= 0
        assert doc["n_arcs"] >= doc["n_shortcuts"]
        assert doc["avg_upward_degree"] > 0
        assert doc["blob_bytes"] > 0


class TestScopeIntegration:
    def test_resolve_ch_builds_default_hierarchy(self, monkeypatch):
        monkeypatch.delenv(oracle_mod.ORACLE_DIR_ENV_VAR, raising=False)
        network = build_random_network(20, seed=0)
        resolved = oracle_mod.resolve("ch", network)
        assert isinstance(resolved, ContractionHierarchy)
        # Memoized per (network, kind); the ALT kind is independent.
        assert oracle_mod.resolve("ch", network) is resolved
        assert oracle_mod.resolve("alt", network) is not resolved

    def test_env_knob_accepts_ch(self, monkeypatch):
        monkeypatch.setenv(oracle_mod.ORACLE_ENV_VAR, "ch")
        network = build_random_network(20, seed=0)
        assert isinstance(
            oracle_mod.resolve(None, network), ContractionHierarchy
        )

    def test_active_ch_for_ignores_alt_scope(self):
        network = build_random_network(20, seed=0)
        alt = oracle_mod.AltOracle.build(network, n_landmarks=2)
        with oracle_mod.use(alt):
            assert oracle_mod.active_ch_for(network) is None
            assert oracle_mod.active_for(network) is alt

    def test_kernel_matrix_hook_uses_buckets(self):
        network = build_random_network(40, seed=3)
        sources = [[s] for s in range(10)]
        targets = list(range(20, 30))
        expected = many_source_lengths(network, sources, targets=targets)
        hierarchy = ContractionHierarchy.build(network)
        reg = metrics.Registry()
        with metrics.use(reg), oracle_mod.use(hierarchy):
            got = many_source_lengths(network, sources, targets=targets)
        assert np.array_equal(got, expected)
        counts = reg.as_dict()
        assert counts["ch.matrix_blocks"] == 1
        assert counts.get("dijkstra.runs", 0) == 0

    def test_two_component_matrix(self):
        network = build_two_component_network()
        expected = _kernel_matrix(network)
        hierarchy = ContractionHierarchy.build(network)
        nodes = list(range(network.n_nodes))
        block = hierarchy.distance_block([[s] for s in nodes], nodes)
        assert np.array_equal(block, expected)

    def test_solver_objective_identical_under_ch(self):
        from repro.obs.profile import profile_solver

        instance = build_random_instance(1, n=40, m=8, l=10, k=4)
        plain = profile_solver(instance, "wma", oracle=False)
        fast = profile_solver(instance, "wma", oracle="ch")
        assert fast.objective == plain.objective
        assert fast.metrics["ch.upward_settles"] > 0
        assert plain.metrics["ch.upward_settles"] == 0
