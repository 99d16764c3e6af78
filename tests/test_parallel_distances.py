"""Parallel fan-out correctness: pool results must equal serial bit-for-bit.

The :class:`~repro.network.parallel.ParallelDistanceEngine` ships CSR
arrays to workers through shared memory and fans source chunks /
component sweeps across a process pool.  These tests force the pool on
(thresholds lowered to 1) and pin its output against the serial kernel:
identical distances, identical merged ``dijkstra.*`` counter totals, and
identical solver objectives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.brnn import solve_brnn
from repro.baselines.exact import solve_exact
from repro.baselines.kmedian_ls import solve_kmedian_ls
from repro.errors import GraphError
from repro.network import ch, oracle
from repro.network.dijkstra import distance_matrix, multi_source_lengths
from repro.network.parallel import (
    MIN_PARALLEL_SOURCES,
    MIN_PARALLEL_WORK,
    WORKERS_ENV_VAR,
    ParallelDistanceEngine,
    resolve_workers,
)
from repro.obs import metrics
from tests.conftest import (
    build_random_instance,
    build_random_network,
    build_two_component_network,
)


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        assert resolve_workers(None) == 4

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) == 1

    def test_malformed_env_ignored(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        assert resolve_workers(None) == 1

    def test_clamped_to_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-5) == 1


class TestFallbackThresholds:
    def test_small_calls_stay_serial(self):
        network = build_random_network(20, seed=0)
        engine = ParallelDistanceEngine(network, 2)
        assert not engine.should_parallelize(2)  # below min_sources
        assert not engine.should_parallelize(100)  # below min_work
        reg = metrics.Registry()
        with metrics.use(reg), engine:
            engine.distance_matrix([0, 1], [2, 3])
        counts = reg.as_dict()
        assert counts["parallel.fallbacks"] == 1
        assert "parallel.tasks" not in counts
        assert engine._pool is None  # pool never started

    def test_thresholds_scale_with_work(self):
        network = build_random_network(20, seed=0)
        engine = ParallelDistanceEngine(network, 2)
        big_enough = max(
            MIN_PARALLEL_SOURCES,
            -(-MIN_PARALLEL_WORK // network.n_nodes),
        )
        assert engine.should_parallelize(big_enough)

    def test_serial_worker_count_never_parallelizes(self):
        network = build_random_network(20, seed=0)
        engine = ParallelDistanceEngine(network, 1)
        assert not engine.should_parallelize(10**9)


@pytest.fixture
def forced_engine_network():
    """A network plus an engine whose thresholds always parallelize."""
    network = build_random_network(60, seed=1)
    engine = ParallelDistanceEngine(network, 2, min_sources=1, min_work=1)
    yield network, engine
    engine.close()


class TestParallelEqualsSerial:
    def test_distance_matrix_bit_identical(self, forced_engine_network):
        network, engine = forced_engine_network
        sources = list(range(0, 60, 3))
        targets = list(range(1, 60, 7))
        serial = distance_matrix(network, sources, targets)
        fanned = engine.distance_matrix(sources, targets)
        assert np.array_equal(serial, fanned)

    def test_multi_source_per_component(self):
        network = build_two_component_network()
        engine = ParallelDistanceEngine(
            network, 2, min_sources=1, min_work=1
        )
        with engine:
            dist, parent, settled = engine.multi_source_lengths([0, 3])
        serial = multi_source_lengths(network, [0, 3])
        assert np.array_equal(dist, serial.dist)
        assert np.array_equal(parent, serial.parent)
        assert sorted(settled) == sorted(serial.settled)

    def test_counter_totals_worker_count_independent(
        self, forced_engine_network
    ):
        network, engine = forced_engine_network
        sources = list(range(0, 60, 4))
        targets = [1, 2, 3]

        serial_reg = metrics.Registry()
        with metrics.use(serial_reg):
            distance_matrix(network, sources, targets)
        fanned_reg = metrics.Registry()
        with metrics.use(fanned_reg):
            engine.distance_matrix(sources, targets)

        serial_counts = serial_reg.as_dict()
        fanned_counts = fanned_reg.as_dict()
        for key in (
            "dijkstra.runs",
            "dijkstra.pops",
            "dijkstra.relaxations",
            "dijkstra.settled",
        ):
            assert fanned_counts[key] == serial_counts[key]
        assert fanned_counts["parallel.tasks"] >= 1

    def test_workers_kwarg_on_entry_points(self, forced_engine_network):
        # The public entry points accept workers=; with thresholds at
        # their defaults these calls fall back to the serial kernel, so
        # the result must be unchanged.
        network, _ = forced_engine_network
        sources, targets = [0, 5, 10], [1, 2]
        assert np.array_equal(
            distance_matrix(network, sources, targets),
            distance_matrix(network, sources, targets, workers=2),
        )
        assert np.array_equal(
            multi_source_lengths(network, sources).dist,
            multi_source_lengths(network, sources, workers=2).dist,
        )


    @pytest.mark.parametrize("target", [-1, 9])
    def test_target_outside_network_raises_before_fan_out(self, target):
        chain = build_random_network(4, seed=0)
        with ParallelDistanceEngine(
            chain, 2, min_sources=1, min_work=1
        ) as engine:
            with pytest.raises(GraphError, match=f"node {target} outside"):
                engine.distance_matrix([0, 1], [target])
            assert engine._pool is None


class TestParallelUnderCHOracle:
    """Workers must ride the pre-forked hierarchy, bit-identically."""

    def test_distance_matrix_bit_identical_and_bucketed(self):
        network = build_random_network(60, seed=1)
        hierarchy = ch.ContractionHierarchy.build(network)
        sources = list(range(0, 60, 3))
        targets = list(range(1, 60, 7))
        serial = distance_matrix(network, sources, targets)
        reg = metrics.Registry()
        with oracle.use(hierarchy), ParallelDistanceEngine(
            network, 2, min_sources=1, min_work=1
        ) as engine:
            with metrics.use(reg):
                fanned = engine.distance_matrix(sources, targets)
        assert np.array_equal(serial, fanned)
        counts = reg.as_dict()
        # Worker chunks ran the bucket path: merged ch.* counters are
        # nonzero and no kernel Dijkstra ever ran.
        assert counts["ch.upward_settles"] > 0
        assert counts.get("dijkstra.runs", 0) == 0
        assert counts["parallel.tasks"] >= 1

    def test_solver_objective_identical_under_ch_workers(self):
        inst = build_random_instance(6, cap_range=(3, 6))
        serial = solve_brnn(inst)
        hierarchy = ch.ContractionHierarchy.build(inst.network)
        with oracle.use(hierarchy):
            fanned = solve_brnn(inst, workers=2)
        assert fanned.objective == serial.objective
        assert fanned.selected == serial.selected


class TestSolverObjectivesUnderWorkers:
    """workers= must never change what a solver computes."""

    def test_exact_objective_identical(self):
        inst = build_random_instance(3, cap_range=(3, 6))
        serial = solve_exact(inst)
        fanned = solve_exact(inst, workers=2)
        assert fanned.objective == serial.objective
        assert fanned.selected == serial.selected

    def test_brnn_objective_identical(self):
        inst = build_random_instance(4, cap_range=(3, 6))
        serial = solve_brnn(inst)
        fanned = solve_brnn(inst, workers=2)
        assert fanned.objective == serial.objective
        assert fanned.selected == serial.selected

    def test_kmedian_objective_identical(self):
        inst = build_random_instance(5, cap_range=(3, 6))
        serial = solve_kmedian_ls(inst, seed=1)
        fanned = solve_kmedian_ls(inst, seed=1, workers=2)
        assert fanned.objective == serial.objective
        assert fanned.selected == serial.selected


class TestEngineLifecycle:
    def test_close_is_idempotent_and_releases_shm(
        self, forced_engine_network
    ):
        network, engine = forced_engine_network
        engine.distance_matrix(list(range(10)), [0, 1])
        assert engine._pool is not None
        engine.close()
        assert engine._pool is None
        assert engine._shm_blocks == []
        engine.close()  # second close is a no-op

    def test_context_manager_closes(self):
        network = build_random_network(30, seed=2)
        with ParallelDistanceEngine(
            network, 2, min_sources=1, min_work=1
        ) as engine:
            engine.distance_matrix(list(range(8)), [0])
        assert engine._pool is None
