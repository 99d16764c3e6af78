"""Contraction-hierarchy correctness: CH results must be bit-identical.

Every observable output of the CH tier -- point-to-point queries,
many-to-many ``distance_block`` entries, facility-stream emission order
-- must be *bit-identical* to the kernel Dijkstra path, because solvers
compare and accumulate these floats and a one-ulp divergence changes
tie-breaking.
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

from repro.datagen.urban import grid_city
from repro.errors import GraphError
from repro.flow.bipartite import _FilteredCursor
from repro.network import ch as ch_mod
from repro.network import oracle as oracle_mod
from repro.network.ch import CHFacilityStream, ContractionHierarchy
from repro.network.dijkstra import distance_matrix
from repro.network.graph import Network
from repro.network.incremental import (
    NearestFacilityStream,
    StreamCursor,
    StreamPool,
)
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
def random_networks(draw, min_nodes: int = 2, min_degree: int = 0) -> Network:
    """Random small graphs: directed or not, parallel edges, islands.

    At least ``min_degree * n`` edges are drawn before self-loops drop.
    """
    n = draw(st.integers(min_value=min_nodes, max_value=16))
    directed = draw(st.booleans())
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), _weights
            ),
            min_size=min_degree * n,
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


#: Two paths from 7 to 4 of equal real length, 7-3-6-4 and 7-3-9-4,
#: whose left-to-right float sums differ: the kernel's minimum is
#: 1.0999999999999999, the other sum is 1.1.
_FLOAT_TIE = Network(
    10,
    [(3, 6, 0.3), (9, 3, 0.2), (4, 9, 0.2), (7, 3, 0.7), (4, 6, 0.1), (3, 5, 0.2)],
)

#: Paths 0-2-3 and 0-2-1-3 tie in real length (1.1 against 0.5 + 0.6)
#: and their left-to-right sums from node 0 differ in the last bit.
_ASSOC_TIE = Network(
    4, [(0, 2, 3.2368797598700043), (1, 2, 0.5), (1, 3, 0.6), (2, 3, 1.1)]
)

#: A tie hidden inside one arc: contracting node 1 first offers the
#: shortcut 0-1-3 (0.1 + 0.1), which ties the edge 0-3 (0.2), and the
#: later shortcut 2-0-3 unpacks through the edge.  The kernel's 2 -> 3
#: is 2-0-1-3, 0.7999999999999999; the edge gives 0.6 + 0.2 = 0.8.
_COLLAPSED_TIE = Network(
    4, [(2, 0, 0.6), (1, 3, 0.1), (1, 2, 1.0), (3, 0, 0.2), (0, 1, 0.1)]
)

#: A 4-node path: an unchecked node -1 would index node 3.
_CHAIN = Network(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


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
    @given(network=random_networks(min_nodes=4, min_degree=1))
    @example(network=_PARALLEL)
    @example(network=_ISLANDS)
    @example(network=_TIED)
    @example(network=_ONEWAY)
    @example(network=_FLOAT_TIE)
    @example(network=_ASSOC_TIE)
    @example(network=_COLLAPSED_TIE)
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
    @given(network=random_networks(min_nodes=4, min_degree=1))
    @example(network=_PARALLEL)
    @example(network=_ISLANDS)
    @example(network=_TIED)
    @example(network=_ONEWAY)
    @example(network=_FLOAT_TIE)
    @example(network=_ASSOC_TIE)
    @example(network=_COLLAPSED_TIE)
    def test_distance_block_matches_kernel(self, network):
        expected = _kernel_matrix(network)
        hierarchy = ContractionHierarchy.build(network)
        nodes = list(range(network.n_nodes))
        block = hierarchy.distance_block([[s] for s in nodes], nodes)
        assert np.array_equal(block, expected)

    @settings(max_examples=30, deadline=None)
    @given(
        network=random_networks(min_nodes=4, min_degree=1),
        radius=st.floats(0.5, 6.0),
    )
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
    @given(network=random_networks(min_nodes=4, min_degree=1))
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

    def test_query_matches_kernel_on_float_association_tie(self):
        expected = float(_kernel_matrix(_FLOAT_TIE)[7, 4])
        assert expected == 1.0999999999999999
        hierarchy = ContractionHierarchy.build(_FLOAT_TIE)
        assert hierarchy.query(7, 4) == expected

    def test_stream_matches_kernel_on_float_association_tie(self):
        kernel = NearestFacilityStream(_FLOAT_TIE, 7, [4])
        hierarchy = ContractionHierarchy.build(_FLOAT_TIE)
        fast = CHFacilityStream(hierarchy, 7, [4])
        assert fast.facility_at(0) == kernel.facility_at(0)

    def test_collapsed_tie_is_kept_and_settled_by_the_kernel(self):
        # The shortcut 0-1-3 and the edge 0-3 collapse into one arc; the
        # hierarchy keeps the shortcut as a tied record, so the query
        # whose path unpacks through the arc takes one kernel search.
        expected = float(_kernel_matrix(_COLLAPSED_TIE)[2, 3])
        assert expected == 0.7999999999999999
        hierarchy = ContractionHierarchy.build(_COLLAPSED_TIE)
        assert hierarchy._alt_mid.tolist() == [1, 1]
        with metrics.use(metrics.Registry()) as reg:
            assert hierarchy.query(2, 3) == expected
        assert reg.counter(ch_mod.COUNTER_TIE_FALLBACKS).value == 1

    def test_tied_records_survive_save_load_and_pickle(self, tmp_path):
        hierarchy = ContractionHierarchy.build(_COLLAPSED_TIE)
        loaded = ContractionHierarchy.load(hierarchy.save(str(tmp_path / "h.npz")))
        shipped = pickle.loads(pickle.dumps(hierarchy))
        expected = _kernel_matrix(_COLLAPSED_TIE)
        nodes = list(range(4))
        for other in (loaded, shipped):
            assert np.array_equal(other._alt_w, hierarchy._alt_w)
            # Neither copy carries the network: the fallback search runs
            # over the hierarchy's own original-edge records.
            block = other.distance_block([[s] for s in nodes], nodes)
            assert np.array_equal(block, expected)

    def test_tie_free_network_never_falls_back(self):
        network = build_random_network(40, seed=3)
        expected = _kernel_matrix(network)
        hierarchy = ContractionHierarchy.build(network)
        nodes = list(range(network.n_nodes))
        with metrics.use(metrics.Registry()) as reg:
            block = hierarchy.distance_block([[s] for s in nodes], nodes)
        assert np.array_equal(block, expected)
        assert len(hierarchy._alt_u) == 0
        assert reg.counter(ch_mod.COUNTER_TIE_FALLBACKS).value == 0

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


#: One step of a stream interleaving: ``("at", rank)`` asks the stream
#: for a rank; ``("peek",)`` and ``("take",)`` drive a filtered cursor
#: over the same stream.  Both frontier bounds are read after every step.
_stream_ops = st.lists(
    st.one_of(
        st.tuples(st.just("at"), st.integers(0, 16)),
        st.sampled_from([("peek",), ("take",)]),
    ),
    max_size=24,
)


@st.composite
def stream_cases(draw):
    """A random network, facility subset, source and allowed subset.

    Sparse draws rarely pause a sweep between two emissions, so every
    network has at least as many edges as nodes (islands still occur).
    """
    network = draw(random_networks(min_nodes=4, min_degree=1))
    nodes = list(range(network.n_nodes))
    facilities = draw(st.lists(st.sampled_from(nodes), min_size=1, unique=True))
    source = draw(st.sampled_from(nodes))
    allowed = draw(st.frozensets(st.sampled_from(facilities)))
    return network, facilities, source, allowed


class TestPausedStreamProperties:
    """The paused sweep must emit what the kernel stream emits.

    Interleavings matter because the CH stream settles on demand: a
    rank request, a filtered resume and a bound read may each meet the
    sweep paused at a different point.
    """

    @settings(max_examples=100, deadline=None)
    @given(case=stream_cases(), ops=_stream_ops)
    @example(case=(_ISLANDS, [0, 1, 3], 5, frozenset({3})), ops=[("take",)])
    @example(case=(_TIED, [1, 2, 3], 0, frozenset({3})), ops=[("peek",)])
    def test_interleavings_match_kernel_stream(self, case, ops):
        network, facilities, source, allowed = case
        expected = StreamCursor(
            NearestFacilityStream(network, source, facilities)
        ).drain()
        expected_allowed = [item for item in expected if item[0] in allowed]
        hierarchy = ContractionHierarchy.build(network)
        stream = CHFacilityStream(hierarchy, source, facilities)
        cursor = _FilteredCursor(stream, allowed)
        taken = 0
        for op in [("peek",), *ops, ("at", len(expected))]:
            # Neither bound may exceed the emission it bounds.
            revealed = len(stream.found)
            if revealed < len(expected):
                assert stream.frontier_lower_bound() <= expected[revealed][1]
            if taken < len(expected_allowed):
                assert cursor.peek_lower_bound() <= expected_allowed[taken][1]
            if op[0] == "at":
                rank = op[1]
                want = expected[rank] if rank < len(expected) else None
                assert stream.facility_at(rank) == want
            else:
                want = (
                    expected_allowed[taken]
                    if taken < len(expected_allowed) else None
                )
                got = cursor.peek() if op[0] == "peek" else cursor.take()
                assert got == want
                if op[0] == "take" and got is not None:
                    taken += 1
            # Whatever was revealed is a prefix of the kernel's order.
            assert stream.found == expected[: len(stream.found)]
        assert stream.found == expected
        assert cursor.drain() == expected_allowed[taken:]

    def test_first_emission_settles_under_half_a_drain(self):
        # On a road-like grid the nearest of 12 facilities is certified
        # long before the upward search space is exhausted.
        network = grid_city(31, 31, seed=0)
        hierarchy = ContractionHierarchy.build(network)
        rng = np.random.default_rng(7)
        facilities = sorted(
            int(v) for v in rng.choice(network.n_nodes, 12, replace=False)
        )
        sources = [int(v) for v in rng.integers(0, network.n_nodes, 50)]
        # Build the facility cones outside the measured registries.
        CHFacilityStream(hierarchy, sources[0], facilities)

        def settles(rank):
            reg = metrics.Registry()
            with metrics.use(reg):
                for s in sources:
                    CHFacilityStream(hierarchy, s, facilities).facility_at(rank)
            return reg.as_dict()["ch.upward_settles"]

        first, drained = settles(0), settles(len(facilities))
        assert 0 < first <= drained // 2


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
        # Memoized per network.
        assert oracle_mod.resolve("ch", network) is resolved

    def test_env_knob_accepts_ch(self, monkeypatch):
        monkeypatch.setenv(oracle_mod.ORACLE_ENV_VAR, "ch")
        network = build_random_network(20, seed=0)
        assert isinstance(
            oracle_mod.resolve(None, network), ContractionHierarchy
        )

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

    @pytest.mark.parametrize("target", [-1, 9])
    def test_matrix_hook_rejects_target_outside_network(self, target):
        with oracle_mod.use(ContractionHierarchy.build(_CHAIN)):
            with pytest.raises(GraphError, match=f"node {target} outside 0..3"):
                distance_matrix(_CHAIN, [0], [target])

    @pytest.mark.parametrize("source", [-1, 4])
    def test_stream_rejects_source_outside_network(self, source):
        hierarchy = ContractionHierarchy.build(_CHAIN)
        with pytest.raises(GraphError, match=f"node {source} outside 0..3"):
            CHFacilityStream(hierarchy, source, [0, 3])

    @pytest.mark.parametrize("bad", [9, -1])
    def test_stream_rejects_facility_outside_network(self, bad):
        hierarchy = ContractionHierarchy.build(_CHAIN)
        with pytest.raises(GraphError, match=f"node {bad} outside 0..3"):
            CHFacilityStream(hierarchy, 0, [bad, 3])

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
