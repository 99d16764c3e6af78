"""ALT distance-oracle correctness: oracle runs must change nothing but speed.

The oracle's contract mirrors the distance cache's: every observable
output -- lower bounds, exact queries, stream emission order, solver
objectives -- must be *bit-identical* to the kernel Dijkstra path.
These tests pin that contract, plus the persistence format's
corruption-safety (any unusable blob falls back to a rebuild).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro.bench.harness import run_solvers
from repro.datagen.instances import uniform_instance
from repro.errors import GraphError
from repro.network import oracle as oracle_mod
from repro.network.dijkstra import shortest_path_lengths
from repro.network.graph import Network
from repro.network.incremental import NearestFacilityStream, StreamPool
from repro.network.landmarks import select_landmarks
from repro.network.oracle import AltOracle, OracleFacilityStream
from repro.obs import metrics
from repro.obs.profile import profile_solver
from tests.conftest import (
    build_random_instance,
    build_random_network,
    build_two_component_network,
    drain_checking_bound,
    filtered_bound_probe,
    frontier_bound_probe,
)

INF = math.inf


def directed_grid(n: int = 5, seed: int = 0) -> Network:
    """A directed grid-ish network with asymmetric weights."""
    rng = np.random.default_rng(seed)
    edges = []
    for r in range(n):
        for c in range(n):
            u = r * n + c
            if c + 1 < n:
                edges.append((u, u + 1, float(rng.uniform(1, 3))))
                edges.append((u + 1, u, float(rng.uniform(1, 3))))
            if r + 1 < n:
                edges.append((u, u + n, float(rng.uniform(1, 3))))
                edges.append((u + n, u, float(rng.uniform(1, 3))))
    return Network(n * n, edges, directed=True)


class TestLandmarkSelection:
    def test_seeded_and_deterministic(self):
        network = build_random_network(60, seed=1)
        a_nodes, a_vecs = select_landmarks(network, 8, seed=3)
        b_nodes, b_vecs = select_landmarks(network, 8, seed=3)
        assert a_nodes == b_nodes
        assert np.array_equal(a_vecs, b_vecs)
        assert len(a_nodes) == 8
        assert len(set(a_nodes)) == 8
        assert a_vecs.shape == (8, 60)

    def test_landmarks_capped_by_node_count(self):
        network = build_random_network(5, seed=0)
        nodes, vecs = select_landmarks(network, 50, seed=0)
        assert len(nodes) <= 5
        assert vecs.shape[0] == len(nodes)

    def test_covers_disconnected_components(self):
        network = build_two_component_network()
        nodes, _ = select_landmarks(network, 2, seed=0)
        # Farthest-point prefers uncovered (+inf) components, so two
        # landmarks must land in the two different triangles.
        assert len({n // 3 for n in nodes}) == 2

    def test_vectors_are_exact_dijkstra_rows(self):
        network = build_random_network(40, seed=2)
        nodes, vecs = select_landmarks(network, 4, seed=0)
        for i, landmark in enumerate(nodes):
            expected = shortest_path_lengths(network, landmark).dist
            assert np.array_equal(vecs[i], expected)


class TestLowerBound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_landmarks", [1, 4, 16])
    def test_never_exceeds_exact_distance(self, seed, n_landmarks):
        network = build_random_network(60, seed=seed)
        oracle = AltOracle.build(network, n_landmarks=n_landmarks, seed=seed)
        rng = np.random.default_rng(seed + 99)
        for _ in range(60):
            u, v = (int(x) for x in rng.integers(0, 60, size=2))
            exact = shortest_path_lengths(network, u).dist[v]
            assert oracle.lower_bound(u, v) <= exact

    def test_self_bound_is_zero(self):
        network = build_random_network(30, seed=0)
        oracle = AltOracle.build(network, n_landmarks=4)
        for u in (0, 7, 29):
            assert oracle.lower_bound(u, u) == 0.0

    def test_cross_component_is_inf(self):
        network = build_two_component_network()
        oracle = AltOracle.build(network, n_landmarks=4)
        assert oracle.lower_bound(0, 4) == INF
        assert oracle.lower_bound(4, 0) == INF
        assert oracle.lower_bound(0, 2) < INF

    def test_directed_bound_property(self):
        network = directed_grid(5, seed=1)
        oracle = AltOracle.build(network, n_landmarks=6, seed=0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v = (int(x) for x in rng.integers(0, 25, size=2))
            exact = shortest_path_lengths(network, u).dist[v]
            assert oracle.lower_bound(u, v) <= exact


class TestQuery:
    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_bit_identical_to_dijkstra(self, seed):
        network = build_random_network(80, seed=seed)
        oracle = AltOracle.build(network, n_landmarks=8, seed=0)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            u, v = (int(x) for x in rng.integers(0, 80, size=2))
            exact = float(shortest_path_lengths(network, u).dist[v])
            assert oracle.query(u, v) == exact  # bit-identical, no tol

    def test_directed_bit_identical(self):
        network = directed_grid(5, seed=2)
        oracle = AltOracle.build(network, n_landmarks=6, seed=0)
        for u in range(0, 25, 3):
            expected = shortest_path_lengths(network, u).dist
            for v in range(0, 25, 4):
                assert oracle.query(u, v) == float(expected[v])

    def test_unreachable_is_inf(self):
        network = build_two_component_network()
        oracle = AltOracle.build(network, n_landmarks=2)
        assert oracle.query(0, 5) == INF

    def test_same_node_is_zero(self):
        network = build_random_network(20, seed=0)
        oracle = AltOracle.build(network, n_landmarks=2)
        assert oracle.query(13, 13) == 0.0

    def test_out_of_range_raises(self):
        network = build_random_network(10, seed=0)
        oracle = AltOracle.build(network, n_landmarks=2)
        with pytest.raises(GraphError):
            oracle.query(0, 10)

    def test_unbound_oracle_raises(self, tmp_path):
        network = build_random_network(10, seed=0)
        oracle = AltOracle.build(network, n_landmarks=2)
        blob_path = str(tmp_path / "o.npz")
        oracle.save(blob_path)
        loaded = AltOracle.load(blob_path)  # no network: stays unbound
        assert loaded is not None
        with pytest.raises(GraphError):
            loaded.query(0, 1)

    def test_query_counters(self):
        network = build_random_network(40, seed=1)
        oracle = AltOracle.build(network, n_landmarks=4)
        reg = metrics.Registry()
        with metrics.use(reg):
            oracle.query(0, 39)
            oracle.query(5, 17)
        counts = reg.as_dict()
        assert counts["oracle.queries"] == 2
        assert counts["oracle.query_pops"] >= 2


class TestPersistence:
    def test_round_trip(self, tmp_path):
        network = build_random_network(50, seed=4)
        oracle = AltOracle.build(network, n_landmarks=6, seed=2)
        path = str(tmp_path / "oracle.npz")
        assert oracle.save(path) == path
        loaded = AltOracle.load(path, network)
        assert loaded is not None
        assert loaded.fingerprint == oracle.fingerprint
        assert loaded.landmarks == oracle.landmarks
        assert loaded.query(0, 49) == oracle.query(0, 49)
        info = loaded.info()
        assert info["n_landmarks"] == 6
        assert info["seed"] == 2
        assert info["source_path"] == path

    def test_missing_file_loads_none(self, tmp_path):
        assert AltOracle.load(str(tmp_path / "absent.npz")) is None

    def test_truncated_blob_loads_none(self, tmp_path):
        network = build_random_network(30, seed=0)
        oracle = AltOracle.build(network, n_landmarks=4)
        path = tmp_path / "oracle.npz"
        oracle.save(str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert AltOracle.load(str(path), network) is None

    def test_garbage_blob_loads_none(self, tmp_path):
        path = tmp_path / "oracle.npz"
        path.write_bytes(b"this is not an npz archive at all")
        assert AltOracle.load(str(path)) is None

    def test_foreign_version_loads_none(self, tmp_path):
        network = build_random_network(20, seed=0)
        oracle = AltOracle.build(network, n_landmarks=2)
        path = tmp_path / "oracle.npz"
        oracle.save(str(path))
        with np.load(str(path)) as blob:
            fields = {k: blob[k] for k in blob.files}
        fields["version"] = np.int64(oracle_mod.ALT_FORMAT_VERSION + 1)
        np.savez(str(path), **fields)
        assert AltOracle.load(str(path), network) is None

    def test_fingerprint_mismatch_loads_none(self, tmp_path):
        network = build_random_network(30, seed=0)
        other = build_random_network(30, seed=1)
        path = str(tmp_path / "oracle.npz")
        AltOracle.build(network, n_landmarks=3).save(path)
        assert AltOracle.load(path, other) is None
        assert AltOracle.load(path, network) is not None

    def test_load_or_build_hits_cache(self, tmp_path):
        network = build_random_network(40, seed=3)
        reg = metrics.Registry()
        with metrics.use(reg):
            first = oracle_mod.load_or_build(network, str(tmp_path))
            second = oracle_mod.load_or_build(network, str(tmp_path))
        counts = reg.as_dict()
        assert counts["oracle.cache_misses"] == 1
        assert counts["oracle.cache_hits"] == 1
        assert counts["oracle.builds"] == 1
        assert second.landmarks == first.landmarks
        path = oracle_mod.cache_path(str(tmp_path), network)
        assert os.path.exists(path)

    def test_load_or_build_rebuilds_on_corruption(self, tmp_path):
        network = build_random_network(30, seed=5)
        path = oracle_mod.cache_path(str(tmp_path), network)
        first = oracle_mod.load_or_build(network, str(tmp_path))
        with open(path, "wb") as fh:
            fh.write(b"corrupted")
        reg = metrics.Registry()
        with metrics.use(reg):
            rebuilt = oracle_mod.load_or_build(network, str(tmp_path))
        assert reg.as_dict()["oracle.cache_misses"] == 1
        assert rebuilt.landmarks == first.landmarks
        # The corrupt blob was overwritten with a loadable one.
        assert AltOracle.load(path, network) is not None


class TestOracleFacilityStream:
    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_matches_kernel_stream_exactly(self, seed):
        network = build_random_network(70, seed=seed)
        rng = np.random.default_rng(seed + 50)
        facilities = sorted(int(v) for v in rng.choice(70, 12, replace=False))
        oracle = AltOracle.build(network, n_landmarks=8, seed=0)
        for source in (0, 17, 42):
            kernel = NearestFacilityStream(network, source, facilities)
            fast = OracleFacilityStream(oracle, source, facilities)
            rank = 0
            while True:
                expected = kernel.facility_at(rank)
                assert fast.facility_at(rank) == expected
                if expected is None:
                    break
                rank += 1

    def test_unreachable_facilities_omitted(self):
        network = build_two_component_network()
        oracle = AltOracle.build(network, n_landmarks=2)
        stream = OracleFacilityStream(oracle, 0, [1, 2, 4, 5])
        assert stream.facility_at(0) is not None
        assert stream.facility_at(1) is not None
        assert stream.facility_at(2) is None  # 4, 5 in the other part
        assert stream.distance_at(2) == INF

    def test_frontier_lower_bound_is_sound(self):
        network = build_random_network(50, seed=2)
        oracle = AltOracle.build(network, n_landmarks=6)
        facilities = [10, 20, 30, 40]
        candidates = range(0, 50, 5)
        with oracle_mod.use(oracle):
            alt_pool = StreamPool(network, candidates)
        kernel_pool = StreamPool(network, candidates)
        probes = {
            "alt": frontier_bound_probe(
                OracleFacilityStream(oracle, 3, facilities)
            ),
            "kernel": frontier_bound_probe(
                NearestFacilityStream(network, 3, facilities)
            ),
            # Filtered: the bound stays below the next *allowed* emission.
            "filtered-alt": filtered_bound_probe(alt_pool, 3, facilities),
            "filtered-kernel": filtered_bound_probe(kernel_pool, 3, facilities),
        }
        for kind, probe in probes.items():
            assert drain_checking_bound(*probe) == len(facilities), kind

    def test_stream_pool_uses_oracle_in_scope(self):
        network = build_random_network(40, seed=0)
        oracle = AltOracle.build(network, n_landmarks=4)
        pool = StreamPool(network, [5, 15, 25])
        assert isinstance(pool.stream_for(0), NearestFacilityStream)
        with oracle_mod.use(oracle):
            pool = StreamPool(network, [5, 15, 25])
            assert isinstance(pool.stream_for(0), OracleFacilityStream)

    def test_pool_cursors_identical_under_oracle(self):
        network = build_random_network(60, seed=6)
        facilities = [3, 11, 24, 37, 51]
        oracle = AltOracle.build(network, n_landmarks=8)
        plain = StreamPool(network, facilities)
        with oracle_mod.use(oracle):
            fast = StreamPool(network, facilities)
        for customer in (0, 30, 59):
            a = plain.cursor_for(customer)
            b = fast.cursor_for(customer)
            for _ in facilities:
                assert b.peek() == a.peek()
                assert b.take() == a.take()


class TestSolverEquivalence:
    @pytest.mark.parametrize("method", ["wma", "hilbert", "wma-naive"])
    def test_objectives_bit_identical(self, method):
        for seed in range(4):
            instance = build_random_instance(seed, n=40, m=8, l=10, k=4)
            rows_plain = run_solvers(
                instance, [method], seeds={method: 0}
            )
            rows_oracle = run_solvers(
                instance, [method], seeds={method: 0}, oracle=True
            )
            assert rows_oracle[0].objective == rows_plain[0].objective

    def test_oracle_counters_appear_in_rows(self):
        instance = build_random_instance(1, n=40, m=8, l=10, k=4)
        rows = run_solvers(instance, ["wma"], oracle=True)
        m = rows[0].metrics
        assert m["oracle.streams"] > 0
        assert m["oracle.queries"] > 0
        # Kernel-stream work replaced wholesale, vocabulary kept.
        assert m["incremental.pops"] == 0

    def test_sspa_prunes_fire_under_oracle(self):
        instance = build_random_instance(2, n=50, m=10, l=12, k=5)
        rows = run_solvers(instance, ["wma"], oracle=True)
        assert rows[0].metrics["oracle.prunes"] > 0


class TestResolveAndScopes:
    def test_resolve_off_values(self, monkeypatch):
        monkeypatch.delenv(oracle_mod.ORACLE_ENV_VAR, raising=False)
        network = build_random_network(20, seed=0)
        assert oracle_mod.resolve(None, network) is None
        assert oracle_mod.resolve(False, network) is None
        assert oracle_mod.resolve("off", network) is None
        monkeypatch.setenv(oracle_mod.ORACLE_ENV_VAR, "0")
        assert oracle_mod.resolve(None, network) is None

    def test_resolve_env_enables(self, monkeypatch):
        monkeypatch.setenv(oracle_mod.ORACLE_ENV_VAR, "alt")
        network = build_random_network(20, seed=0)
        oracle = oracle_mod.resolve(None, network)
        assert isinstance(oracle, AltOracle)
        # Memoized per network object.
        assert oracle_mod.resolve(True, network) is oracle

    def test_resolve_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(oracle_mod.ORACLE_ENV_VAR, "warp-drive")
        network = build_random_network(20, seed=0)
        with pytest.raises(GraphError):
            oracle_mod.resolve(None, network)
        with pytest.raises(GraphError):
            oracle_mod.resolve(3.14, network)

    def test_resolve_binds_instances(self):
        network = build_random_network(20, seed=0)
        other = build_random_network(20, seed=1)
        oracle = AltOracle.build(network, n_landmarks=2)
        assert oracle_mod.resolve(oracle, network) is oracle
        with pytest.raises(GraphError):
            oracle_mod.resolve(oracle, other)

    def test_use_scope_nests_and_restores(self):
        network = build_random_network(20, seed=0)
        a = AltOracle.build(network, n_landmarks=2)
        b = AltOracle.build(network, n_landmarks=3)
        assert oracle_mod.active() is None
        with oracle_mod.use(a):
            assert oracle_mod.active() is a
            with oracle_mod.use(b):
                assert oracle_mod.active() is b
            assert oracle_mod.active() is a
        assert oracle_mod.active() is None

    def test_active_for_rejects_mismatched_network(self):
        network = build_random_network(20, seed=0)
        other = build_random_network(20, seed=1)
        oracle = AltOracle.build(network, n_landmarks=2)
        with oracle_mod.use(oracle):
            assert oracle_mod.active_for(network) is oracle
            assert oracle_mod.active_for(other) is None

    def test_default_oracle_honors_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(oracle_mod.ORACLE_DIR_ENV_VAR, str(tmp_path))
        network = build_random_network(30, seed=9)
        oracle = oracle_mod.default_oracle(network)
        expected = oracle_mod.cache_path(str(tmp_path), network)
        assert oracle.source_path == expected
        assert os.path.exists(expected)


class TestProfileIntegration:
    def test_profile_oracle_keeps_dijkstra_counters_flat(self):
        instance = build_random_instance(3, n=40, m=8, l=10, k=4)
        # oracle=False pins the kernel path regardless of REPRO_ORACLE
        # (this suite also runs under the CI oracle-equivalence job).
        plain = profile_solver(instance, "wma", oracle=False)
        fast = profile_solver(instance, "wma", oracle=True)
        assert fast.objective == plain.objective
        # The landmark build runs *outside* the profiled registry, so
        # oracle runs must not inflate the report's dijkstra ceilings.
        assert fast.metrics["dijkstra.pops"] <= plain.metrics["dijkstra.pops"]
        assert fast.metrics["oracle.queries"] > 0
        assert plain.metrics["oracle.queries"] == 0
        # Both reports carry the full shared vocabulary.
        for key in ("oracle.prunes", "incremental.pops", "dijkstra.pops"):
            assert key in plain.metrics
            assert key in fast.metrics

    def test_kernel_streams_prune_like_alt(self):
        # The kernel stream's paused heap bounds nnDist too, so the
        # Theorem-1 stop is certified without resuming streams -- and
        # the SSPA trajectory is exactly the ALT run's.
        instance = uniform_instance(256, seed=0)
        kernel = profile_solver(instance, "wma", oracle=False).metrics
        alt = profile_solver(instance, "wma", oracle="alt").metrics
        assert kernel["oracle.queries"] == 0
        assert kernel["oracle.prunes"] > 0
        for key in (
            "sspa.reveals",
            "sspa.augmentations",
            "sspa.pops",
            "sspa.dijkstra_runs",
        ):
            assert kernel[key] == alt[key], key

    def test_profile_env_knob(self, monkeypatch):
        monkeypatch.setenv(oracle_mod.ORACLE_ENV_VAR, "alt")
        instance = build_random_instance(4, n=30, m=6, l=8, k=3)
        report = profile_solver(instance, "wma")
        assert report.metrics["oracle.queries"] > 0
        # Explicit off overrides the environment.
        off = profile_solver(instance, "wma", oracle=False)
        assert off.metrics["oracle.queries"] == 0
        assert off.objective == report.objective


class TestInfoPayload:
    def test_info_is_json_ready(self):
        network = build_random_network(25, seed=0)
        oracle = AltOracle.build(network, n_landmarks=3, seed=1)
        doc = oracle.info()
        json.dumps(doc)  # must not raise
        assert doc["fingerprint"] == network.fingerprint
        assert doc["n_landmarks"] == 3
        assert doc["directed"] is False
