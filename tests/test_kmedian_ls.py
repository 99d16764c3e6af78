"""Tests for the uncapacitated k-median local-search baseline."""

from __future__ import annotations

import pytest

from repro import SolverOptions, solve, validate_solution
from repro.baselines.kmedian_ls import _uncapacitated_cost, solve_kmedian_ls
from repro.core.instance import MCFSInstance
from repro.errors import InfeasibleInstanceError
from tests.conftest import (
    build_grid_network,
    build_line_network,
    build_random_instance,
    build_two_component_network,
)


class TestUncapacitatedCost:
    def test_nearest_open_facility(self):
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(0, 9),
            facility_nodes=(2, 7),
            capacities=(1, 1),
            k=2,
        )
        assert _uncapacitated_cost(inst, [0, 1]) == pytest.approx(2 + 2)
        assert _uncapacitated_cost(inst, [0]) == pytest.approx(2 + 7)

    def test_unreachable_is_inf(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 3),
            facility_nodes=(1, 4),
            capacities=(2, 2),
            k=2,
        )
        assert _uncapacitated_cost(inst, [0]) == float("inf")


class TestSolveKMedianLs:
    def test_valid_on_random_instances(self):
        for seed in range(6):
            inst = build_random_instance(seed, cap_range=(4, 8))
            sol = solve_kmedian_ls(inst, seed=seed)
            validate_solution(inst, sol)
            assert sol.meta["algorithm"] == "kmedian-ls"

    def test_finds_obvious_medians_with_loose_capacity(self):
        # Two far customer clusters; two obviously best facilities.
        inst = MCFSInstance(
            network=build_line_network(20),
            customers=(0, 1, 2, 17, 18, 19),
            facility_nodes=(1, 9, 10, 18),
            capacities=(10, 10, 10, 10),
            k=2,
        )
        sol = solve_kmedian_ls(
            inst, seed=0, options=SolverOptions(extras={"pool_size": 8})
        )
        validate_solution(inst, sol)
        assert sorted(sol.selected) == [0, 3]
        assert sol.objective == pytest.approx(4.0)

    def test_capacity_repair_under_tightness(self):
        # Uncapacitated optimum concentrates on one node; hard capacity 2
        # forces a repaired, feasible outcome.
        inst = MCFSInstance(
            network=build_grid_network(4, 4),
            customers=(5, 5, 5, 5),
            facility_nodes=(5, 0, 15),
            capacities=(2, 2, 2),
            k=2,
        )
        sol = solve_kmedian_ls(
            inst, seed=1, options=SolverOptions(extras={"pool_size": 4})
        )
        validate_solution(inst, sol)
        loads = sol.load_per_facility()
        assert all(
            loads[j] <= inst.capacities[j] for j in sol.selected
        )

    def test_infeasible_raises(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 3),
            facility_nodes=(1, 4),
            capacities=(5, 5),
            k=1,
        )
        with pytest.raises(InfeasibleInstanceError):
            solve_kmedian_ls(inst)

    def test_registered_in_solver_registry(self):
        inst = build_random_instance(1, cap_range=(4, 8))
        sol = solve(inst, method="kmedian-ls", seed=2)
        validate_solution(inst, sol)

    def test_uncapacitated_cost_lower_bounds_objective(self):
        """The search's internal cost ignores capacities, so the final
        capacity-aware objective can only be >= it."""
        for seed in range(4):
            inst = build_random_instance(seed, cap_range=(2, 4))
            sol = solve_kmedian_ls(inst, seed=seed)
            if not sol.meta["selection_repaired"]:
                assert (
                    sol.objective >= sol.meta["uncapacitated_cost"] - 1e-9
                )
