"""Targeted tests for less-travelled solver code paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SolverOptions, validate_solution
from repro.baselines.exact import solve_exact
from repro.baselines.hilbert import _component_budgets
from repro.baselines.wma_naive import _final_greedy_assignment
from repro.core.instance import MCFSInstance
from repro.core.wma import solve_wma_uniform_first
from tests.conftest import (
    build_grid_network,
    build_line_network,
    build_two_component_network,
)


class TestExactOptions:
    def test_mip_gap_option_accepted(self):
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(1, 8),
            facility_nodes=(0, 4, 9),
            capacities=(2, 2, 2),
            k=2,
        )
        sol = solve_exact(inst, options=SolverOptions(extras={"mip_gap": 0.01}))
        validate_solution(inst, sol)

    def test_unused_open_facilities_dropped(self):
        # With k = l and zero-cost colocations, HiGHS may open facilities
        # nothing is assigned to; the wrapper must drop them.
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(0,),
            facility_nodes=(0, 5, 9),
            capacities=(5, 5, 5),
            k=3,
        )
        sol = solve_exact(inst)
        validate_solution(inst, sol)
        assert set(sol.selected) == set(sol.assignment)


class TestHilbertBudgets:
    def test_budgets_sum_to_k(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 1, 3, 4),
            facility_nodes=(0, 1, 2, 3, 4, 5),
            capacities=(2,) * 6,
            k=4,
        )
        budgets = _component_budgets(inst)
        assert sum(b for _, _, b in budgets) <= inst.k
        # Both populated components get at least their minimum.
        for cust_idx, fac_idx, budget in budgets:
            assert budget >= 1
            assert len(fac_idx) >= budget

    def test_budget_proportional_to_customers(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 1, 2, 3),  # 3 in A, 1 in B
            facility_nodes=(0, 1, 2, 3, 4, 5),
            capacities=(1,) * 6,
            k=4,
        )
        budgets = {
            len(cust): budget for cust, _, budget in _component_budgets(inst)
        }
        assert budgets[3] >= budgets[1]


class TestNaiveFallback:
    def test_greedy_dead_end_repaired(self):
        # Greedy assignment in an adversarial order can strand the last
        # customer (all near seats taken); the fallback must produce a
        # feasible optimal assignment instead.
        inst = MCFSInstance(
            network=build_grid_network(3, 3),
            customers=(4, 4, 4),
            facility_nodes=(0, 4),
            capacities=(2, 1),
            k=2,
        )
        for seed in range(5):
            rng = np.random.default_rng(seed)
            _, assignment, objective, repaired = _final_greedy_assignment(
                inst, [0, 1], rng
            )
            assert sorted(assignment.count(j) for j in (0, 1)) == [1, 2]
            assert objective == pytest.approx(4.0)


class TestUniformFirstEscalation:
    def test_flattened_capacity_escalates(self):
        # One big facility carries the component; the mean-capacity proxy
        # (2) is infeasible for k=1, so UF must escalate and still return
        # a valid solution.
        inst = MCFSInstance(
            network=build_line_network(8),
            customers=(0, 1, 2, 3),
            facility_nodes=(2, 6),
            capacities=(4, 1),
            k=1,
        )
        sol = solve_wma_uniform_first(inst)
        validate_solution(inst, sol)
        assert sol.selected == (0,)

    def test_uf_on_already_uniform(self):
        inst = MCFSInstance(
            network=build_line_network(8),
            customers=(0, 7),
            facility_nodes=(1, 6),
            capacities=(2, 2),
            k=2,
        )
        sol = solve_wma_uniform_first(inst)
        validate_solution(inst, sol)
        assert sol.objective == pytest.approx(2.0)
