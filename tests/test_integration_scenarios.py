"""End-to-end integration scenarios across the whole stack.

Each test tells one realistic story through multiple subsystems --
generation, solving, analysis, persistence -- the way a downstream user
would chain them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CustomerArrive, CustomerDepart, ServeEngine, solve, validate_solution
from repro.bench.solution_stats import compare_solutions, solution_stats
from repro.core import refine_solution
from repro.core.throughput import assign_with_throughput
from repro.datagen import (
    city_instance,
    generate_workload,
    grid_city,
    occupancy_customer_distribution,
    operational_hours_capacities,
    radial_city,
    synth_occupancies,
    weighted_customers,
)
from repro.io import export_scenario, load_solution, save_solution
from repro.io.serialization import load_instance, save_instance
from repro.network.subgraph import giant_component_instance


class TestFullCoworkingPipeline:
    """Generate -> solve -> analyze -> persist -> reload -> refine."""

    def test_pipeline(self, tmp_path):
        network = grid_city(12, 12, seed=3)
        rng = np.random.default_rng(3)
        venues = sorted(
            int(v) for v in rng.choice(network.n_nodes, size=60, replace=False)
        )
        hours = operational_hours_capacities(60, rng)
        occupancy = synth_occupancies(60, rng)
        weights = occupancy_customer_distribution(network, venues, occupancy)
        coworkers = weighted_customers(network, 50, weights, rng)

        instance = city_instance(
            network,
            m=50,
            k=12,
            capacity=hours,
            customer_nodes=coworkers,
            facility_nodes=venues,
            name="pipeline",
        )

        # Solve with two methods, compare, pick the better.
        solutions = [solve(instance, method=m) for m in ("wma", "hilbert")]
        for sol in solutions:
            validate_solution(instance, sol)
        rows = compare_solutions(instance, solutions)
        assert rows[0]["vs_best"] >= 1.0

        best = min(solutions, key=lambda s: s.objective)
        stats = solution_stats(instance, best)
        assert stats.mean_utilization <= 1.0

        # Persist and reload both artifacts; re-validate after reload.
        inst_path = tmp_path / "instance.npz"
        sol_path = tmp_path / "solution.json"
        save_instance(instance, inst_path)
        save_solution(best, sol_path)
        reloaded_inst = load_instance(inst_path)
        reloaded_sol = load_solution(sol_path)
        validate_solution(reloaded_inst, reloaded_sol)

        # Refine the reloaded solution; it may only improve.
        refined, report = refine_solution(reloaded_inst, reloaded_sol)
        validate_solution(reloaded_inst, refined)
        assert refined.objective <= reloaded_sol.objective + 1e-9

        # Export the map bundle.
        export_scenario(reloaded_inst, refined, tmp_path / "map.json")
        assert (tmp_path / "map.json").stat().st_size > 0


class TestFullDynamicPipeline:
    """Select once, then serve a day-long temporal workload."""

    def test_pipeline(self):
        network = radial_city(8, 24, seed=5)
        instance = city_instance(
            network, m=30, k=10, capacity=8, seed=5, name="dyn"
        )
        selection = solve(instance, method="wma").selected

        engine = ServeEngine(instance, selection)
        rng = np.random.default_rng(5)
        events = generate_workload(
            network, rng, hours=12.0, base_rate=2.0, peak_rate=6.0
        )
        handles: dict[int, int] = {}
        for pos, event in enumerate(events):
            if event.kind == "arrival":
                outcome = engine.apply([CustomerArrive(event.node)]).outcomes[0]
                if outcome.status == "applied":
                    handles[pos] = outcome.handle
            elif event.ref in handles:
                engine.apply([CustomerDepart(handles.pop(event.ref))])

        # System ends consistent: loads, costs, capacity all coherent.
        loads = engine.load_per_facility()
        assert sum(loads.values()) == engine.n_active
        assert engine.n_active == instance.m + len(handles)
        assert engine.residual_capacity() >= 0
        assert engine.staleness == "optimal"
        assert engine.cost >= 0.0


class TestFragmentedCityWorkflow:
    """Disconnected network: solve globally, then study the core."""

    def test_pipeline(self):
        network = grid_city(10, 10, seed=7, drop_rate=0.35)  # fragments
        instance = city_instance(
            network, m=25, k=8, capacity=8, seed=7, name="frag"
        )
        sol = solve(instance, method="wma")
        validate_solution(instance, sol)

        core = giant_component_instance(instance)
        assert core.network.stats().n_components == 1
        core_sol = solve(core, method="wma")
        validate_solution(core, core_sol)
        # The core sub-problem can be no more expensive per customer
        # than... no general relation; just both must be feasible and
        # the core strictly smaller.
        assert core.m <= instance.m


class TestThroughputOnSelection:
    def test_every_solver_selection_routable_unconstrained(self):
        network = grid_city(8, 8, seed=9)
        instance = city_instance(
            network, m=16, k=5, capacity=5, seed=9, name="route"
        )
        for method in ("wma", "hilbert", "wma-naive"):
            sol = solve(instance, method=method)
            routed = assign_with_throughput(
                instance, sol.selected, float("inf")
            )
            # Unconstrained routing equals the assignment optimum, which
            # is at most the solver's (already optimal-assignment) cost.
            assert routed.cost == pytest.approx(sol.objective, rel=1e-9)
