"""End-to-end tests for the Wide Matching Algorithm."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import wma
from repro.core.demand import UniformDemandPolicy
from repro.core.instance import MCFSInstance
from repro.core.validation import validate_solution
from repro.core.wma import WMASolver, solve_wma, solve_wma_uniform_first
from repro.datagen.instances import clustered_instance, uniform_instance
from repro.errors import InfeasibleInstanceError, MatchingError
from repro.flow.sspa import ThresholdRule, assign_all
from tests.conftest import (
    build_line_network,
    build_random_instance,
    build_two_component_network,
)


def brute_force_optimum(instance: MCFSInstance) -> float | None:
    """Enumerate all k-subsets and optimally assign each."""
    best = None
    for combo in itertools.combinations(range(instance.l), instance.k):
        nodes = [instance.facility_nodes[j] for j in combo]
        caps = [instance.capacities[j] for j in combo]
        try:
            result = assign_all(instance.network, instance.customers, nodes, caps)
        except MatchingError:
            continue
        if best is None or result.cost < best:
            best = result.cost
    return best


class TestBasics:
    def test_line_instance_optimal(self):
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(2, 3, 6, 7),
            facility_nodes=(0, 2, 7, 9),
            capacities=(4, 4, 4, 4),
            k=2,
        )
        sol = solve_wma(inst)
        validate_solution(inst, sol)
        assert sol.objective == pytest.approx(brute_force_optimum(inst))
        assert sorted(sol.selected) == [1, 2]

    def test_solution_always_valid_on_random_instances(self):
        for seed in range(15):
            inst = build_random_instance(seed)
            sol = solve_wma(inst)
            validate_solution(inst, sol)

    def test_quality_vs_brute_force(self):
        """WMA stays within a reasonable factor of the optimum."""
        gaps = []
        for seed in range(12):
            inst = build_random_instance(seed, cap_range=(3, 6))
            best = brute_force_optimum(inst)
            if best is None or best <= 0:
                continue
            sol = solve_wma(inst)
            validate_solution(inst, sol)
            gaps.append(sol.objective / best)
        assert gaps, "no feasible instances drawn"
        assert np.mean(gaps) < 1.25
        assert min(gaps) >= 1.0 - 1e-9

    def test_meta_counters(self):
        inst = build_random_instance(3)
        sol = solve_wma(inst)
        assert sol.meta["algorithm"] == "wma"
        assert sol.meta["iterations"] >= 1
        assert sol.meta["edges_materialized"] > 0
        assert sol.meta["runtime_sec"] > 0

    def test_trace_recorded(self):
        inst = build_random_instance(4)
        solver = WMASolver(inst)
        solver.solve()
        trace = solver.trace
        assert trace.iterations >= 1
        assert len(trace.matching_time) == trace.iterations
        assert trace.covered[-1] <= inst.m
        rows = trace.rows()
        assert rows[0]["iteration"] == 1

    def test_second_solve_repeats_the_first(self):
        solver = WMASolver(uniform_instance(256, seed=0))
        first = solver.solve()
        second = solver.solve()
        assert second.selected == first.selected
        assert second.objective == first.objective
        del first.meta["runtime_sec"], second.meta["runtime_sec"]
        assert second.meta == first.meta
        assert solver.trace.iterations == second.meta["iterations"]

    def test_k_equals_l_selects_all_useful(self):
        inst = MCFSInstance(
            network=build_line_network(6),
            customers=(0, 5),
            facility_nodes=(1, 4),
            capacities=(2, 2),
            k=2,
        )
        sol = solve_wma(inst)
        validate_solution(inst, sol)
        assert sol.objective == pytest.approx(2.0)

    def test_multiple_customers_per_node(self):
        inst = MCFSInstance(
            network=build_line_network(8),
            customers=(3, 3, 3, 3),
            facility_nodes=(0, 3, 7),
            capacities=(4, 2, 4),
            k=2,
        )
        sol = solve_wma(inst)
        validate_solution(inst, sol)
        # Two customers sit on the facility node, two must travel.
        assert sol.objective == pytest.approx(brute_force_optimum(inst))


class TestDisconnected:
    def test_covers_both_components(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 1, 3, 4),
            facility_nodes=(2, 5),
            capacities=(2, 2),
            k=2,
        )
        sol = solve_wma(inst)
        validate_solution(inst, sol)
        assert sorted(sol.selected) == [0, 1]

    def test_component_capacity_repair(self):
        g = build_two_component_network()
        # Component B needs the high-capacity facility.
        inst = MCFSInstance(
            network=g,
            customers=(0, 3, 4, 5),
            facility_nodes=(1, 2, 4),
            capacities=(1, 1, 3),
            k=2,
        )
        sol = solve_wma(inst)
        validate_solution(inst, sol)
        assert 2 in sol.selected

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
            solve_wma(inst)


class TestConfigurations:
    def test_threshold_rules_same_validity(self):
        for seed in (0, 5, 9):
            inst = build_random_instance(seed)
            s1 = WMASolver(inst, threshold_rule=ThresholdRule.THEOREM1).solve()
            s2 = WMASolver(inst, threshold_rule=ThresholdRule.TAU_PRIME).solve()
            validate_solution(inst, s1)
            validate_solution(inst, s2)
            # Identical matchings imply identical selections/objectives.
            assert s1.objective == pytest.approx(s2.objective)

    def test_uniform_demand_policy_works(self):
        inst = build_random_instance(2)
        sol = WMASolver(inst, demand_policy=UniformDemandPolicy()).solve()
        validate_solution(inst, sol)
        assert sol.meta["demand_policy"] == "uniform"

    def test_index_tie_breaking_works(self):
        inst = build_random_instance(6)
        sol = WMASolver(inst, tie_breaking="index").solve()
        validate_solution(inst, sol)

    def test_cost_tie_breaking_works(self):
        for seed in (1, 6):
            inst = build_random_instance(seed)
            sol = WMASolver(inst, tie_breaking="cost").solve()
            validate_solution(inst, sol)
            assert sol.meta["tie_breaking"] == "cost"

    def test_deterministic(self):
        inst = build_random_instance(7)
        a = solve_wma(inst)
        b = solve_wma(inst)
        assert a.selected == b.selected
        assert a.objective == pytest.approx(b.objective)


@pytest.mark.parametrize(
    ("build", "options", "raises"),
    [
        (lambda: uniform_instance(256, seed=0), {}, False),
        # Some customers of this instance reach no free facility, so
        # find_pair raises MatchingError and must leave the index as is.
        (
            lambda: clustered_instance(300, seed=3),
            {"tie_breaking": "cost"},
            True,
        ),
        (lambda: uniform_instance(256, seed=0), {"tie_breaking": "index"}, False),
        (
            lambda: uniform_instance(256, seed=0),
            {"demand_policy": UniformDemandPolicy()},
            False,
        ),
    ],
    ids=["uniform", "matching-error", "index-ties", "uniform-demand"],
)
def test_cover_gains_track_sigma_at_every_check(
    monkeypatch, build, options, raises
):
    """The CoverGains index WMA grows per augmentation never drifts."""
    real_check_cover, real_find_pair = wma.check_cover, wma.find_pair
    checks, failures = [], []

    def checked_cover(sigma, *args, gains, **kwargs):
        assert gains.size == [len(s) for s in sigma]
        for size, bucket in gains.buckets.items():
            assert bucket and all(gains.size[j] == size for j in bucket)
        members = sorted(j for b in gains.buckets.values() for j in b)
        assert members == [j for j, s in enumerate(sigma) if s]
        checks.append(len(members))
        return real_check_cover(sigma, *args, gains=gains, **kwargs)

    def counted_find_pair(state, customer, rule):
        try:
            return real_find_pair(state, customer, rule)
        except MatchingError:
            failures.append(customer)
            raise

    monkeypatch.setattr(wma, "check_cover", checked_cover)
    monkeypatch.setattr(wma, "find_pair", counted_find_pair)
    solution = WMASolver(build(), **options).solve()
    assert len(checks) == solution.meta["iterations"]
    assert bool(failures) == raises


class TestUniformFirst:
    def test_valid_on_nonuniform_instances(self):
        for seed in range(8):
            inst = build_random_instance(seed, cap_range=(1, 6))
            sol = solve_wma_uniform_first(inst)
            validate_solution(inst, sol)
            assert sol.meta["algorithm"] == "wma-uf"

    def test_equals_direct_on_uniform_capacities(self):
        inst = build_random_instance(1, cap_range=(3, 4))
        uniform = inst.with_uniform_capacities(3)
        direct = solve_wma(uniform)
        uf = solve_wma_uniform_first(uniform)
        assert uf.objective == pytest.approx(direct.objective)
