"""Regression tests: ``BudgetExceeded`` always escapes broad handlers.

REP106 rewrote every ``except Exception`` that sat between a budget
checkpoint and :func:`~repro.runtime.runner.solve_with_fallback`.  These
tests inject faults through :mod:`repro.runtime.faults` and expired
budgets to prove the deadline actually propagates from each remediated
site -- and that the handlers still swallow what they are *supposed* to
swallow (corrupt blobs, ordinary solver failures).
"""

from __future__ import annotations

import pytest

from repro.bench.robustness import drift_study
from repro.core.validation import validate_solution
from repro.errors import BudgetExceeded, SolverError
from repro.network.ch import ContractionHierarchy
from repro.network.parallel import ParallelDistanceEngine
from repro.runtime import (
    Budget,
    FaultPlan,
    budget as budget_mod,
    solve_with_fallback,
    use_faults,
)
from tests.conftest import (
    build_grid_network,
    build_random_instance,
    build_random_network,
)


@pytest.fixture(scope="module")
def network():
    return build_grid_network(5, 5)


@pytest.fixture(scope="module")
def ch_blob(network, tmp_path_factory):
    path = tmp_path_factory.mktemp("blobs") / "ch.npz"
    ContractionHierarchy.build(network).save(str(path))
    return str(path)


class TestHierarchyLoad:
    def test_expired_budget_propagates(self, network, ch_blob):
        # The injected delay makes the very first checkpoint blow the
        # budget: load must raise, not fall back to "rebuild".
        plan = FaultPlan(dijkstra_delay_sec=0.1)
        with use_faults(plan), budget_mod.use(Budget(0.05)):
            with pytest.raises(BudgetExceeded):
                ContractionHierarchy.load(ch_blob, network)

    def test_corrupt_blob_still_returns_none(self, network, tmp_path):
        bad = tmp_path / "ch.npz"
        bad.write_bytes(b"garbage")
        assert ContractionHierarchy.load(str(bad), network) is None


class TestParallelWorkers:
    def test_worker_deadline_reaches_parent(self):
        # Budget and fault scopes are entered *before* the pool exists,
        # so fork-started workers inherit both; each in-worker Dijkstra
        # checkpoint then sleeps past the deadline and the raise must
        # cross the pool boundary intact.
        network = build_random_network(60, seed=1)
        engine = ParallelDistanceEngine(
            network, 2, min_sources=1, min_work=1
        )
        sources = list(range(16))
        plan = FaultPlan(dijkstra_delay_sec=0.05)
        with engine, use_faults(plan), budget_mod.use(Budget(0.1)):
            with pytest.raises(BudgetExceeded):
                engine.distance_matrix(sources, sources)

    def test_chain_turns_worker_timeout_into_fallback(self):
        # End to end: the cooperative timeout surfaces inside
        # solve_with_fallback as a "timeout" SolverRun and the terminal
        # method still answers under grace.
        from repro.datagen import uniform_instance

        instance = uniform_instance(96, seed=3)
        plan = FaultPlan(dijkstra_delay_sec=0.005)
        with use_faults(plan):
            result = solve_with_fallback(
                instance, ("wma", "hilbert"), deadline=0.02
            )
        validate_solution(instance, result.solution)
        statuses = [run.status for run in result.runs]
        degraded = result.solution.meta.get("degraded", False)
        assert "timeout" in statuses or degraded


class TestDriftStudy:
    def _case(self):
        instance = build_random_instance(2, n=40)
        result = solve_with_fallback(instance, "wma")
        return instance, result.solution

    def test_budget_exceeded_propagates(self):
        instance, solution = self._case()

        def deadline_solver(_inst):
            raise BudgetExceeded("injected deadline")

        with pytest.raises(BudgetExceeded):
            drift_study(
                instance,
                solution,
                fractions=(0.5,),
                solver=deadline_solver,
            )

    def test_ordinary_solver_failure_is_narrowed(self):
        instance, solution = self._case()

        def broken_solver(_inst):
            raise SolverError("injected failure")

        points = drift_study(
            instance, solution, fractions=(0.5,), solver=broken_solver
        )
        assert len(points) == 1
        assert points[0].fresh_cost is None
        assert points[0].regret is None
