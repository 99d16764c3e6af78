"""Tests for the exact MILP solver (the Gurobi stand-in)."""

from __future__ import annotations

import itertools

import pytest

from repro.baselines.exact import lp_lower_bound, solve_exact
from repro.core.instance import MCFSInstance
from repro.core.validation import validate_solution
from repro.datagen.instances import uniform_instance
from repro.errors import InfeasibleInstanceError, MatchingError
from repro.flow.sspa import assign_all
from tests.conftest import (
    build_line_network,
    build_random_instance,
    build_two_component_network,
)


def brute_force_optimum(instance: MCFSInstance) -> float | None:
    best = None
    for combo in itertools.combinations(range(instance.l), instance.k):
        nodes = [instance.facility_nodes[j] for j in combo]
        caps = [instance.capacities[j] for j in combo]
        try:
            result = assign_all(
                instance.network, instance.customers, nodes, caps
            )
        except MatchingError:
            continue
        if best is None or result.cost < best:
            best = result.cost
    return best


class TestSolveExact:
    def test_line_instance(self):
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(2, 3, 6, 7),
            facility_nodes=(0, 2, 7, 9),
            capacities=(4, 4, 4, 4),
            k=2,
        )
        sol = solve_exact(inst)
        validate_solution(inst, sol)
        assert sol.objective == pytest.approx(2.0)
        assert sol.meta["algorithm"] == "exact"

    def test_matches_brute_force_on_random_instances(self):
        checked = 0
        for seed in range(10):
            inst = build_random_instance(seed, cap_range=(2, 5))
            best = brute_force_optimum(inst)
            if best is None:
                with pytest.raises(InfeasibleInstanceError):
                    solve_exact(inst)
                continue
            sol = solve_exact(inst)
            validate_solution(inst, sol)
            assert sol.objective == pytest.approx(best, rel=1e-6)
            checked += 1
        assert checked >= 5

    def test_capacity_constraint_binding(self):
        # One facility cannot absorb everyone; MILP must open two.
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(0, 1, 2),
            facility_nodes=(1, 8),
            capacities=(2, 2),
            k=2,
        )
        sol = solve_exact(inst)
        validate_solution(inst, sol)
        assert len(set(sol.assignment)) == 2

    def test_budget_constraint_binding(self):
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(0, 9),
            facility_nodes=(0, 9),
            capacities=(5, 5),
            k=1,
        )
        sol = solve_exact(inst)
        validate_solution(inst, sol)
        assert len(sol.selected) == 1
        assert sol.objective == pytest.approx(9.0)

    def test_disconnected_components(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 3),
            facility_nodes=(1, 4),
            capacities=(2, 2),
            k=2,
        )
        sol = solve_exact(inst)
        validate_solution(inst, sol)
        assert sorted(sol.selected) == [0, 1]

    def test_unreachable_customer_infeasible(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 3),
            facility_nodes=(1,),
            capacities=(9,),
            k=1,
        )
        with pytest.raises(InfeasibleInstanceError, match="reach"):
            solve_exact(inst)

    def test_capacity_infeasible(self):
        inst = MCFSInstance(
            network=build_line_network(5),
            customers=(0, 1, 2),
            facility_nodes=(4,),
            capacities=(2,),
            k=1,
        )
        with pytest.raises(InfeasibleInstanceError):
            solve_exact(inst)


class TestLpBound:
    def test_lower_bounds_optimum(self):
        for seed in range(6):
            inst = build_random_instance(seed, cap_range=(2, 5))
            best = brute_force_optimum(inst)
            if best is None:
                continue
            bound = lp_lower_bound(inst)
            assert bound <= best + 1e-6

    def test_bound_positive_when_travel_needed(self):
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(0, 9),
            facility_nodes=(4,),
            capacities=(5,),
            k=1,
        )
        assert lp_lower_bound(inst) == pytest.approx(4 + 5)

    def test_bound_is_zero_when_customers_sit_on_candidates(self):
        # Without y_ij <= x_j rows the relaxation opens x_j = 1/c_j under
        # each customer and pays nothing (WMA's objective here: 4842.24).
        # A stronger bound must change this pin deliberately.
        inst = uniform_instance(128, seed=0)
        assert lp_lower_bound(inst) == pytest.approx(0.0, abs=1e-9)
