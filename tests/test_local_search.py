"""Tests for the local-search refinement extension."""

from __future__ import annotations

import itertools

import pytest

from repro import solve, validate_solution
from repro.core.instance import MCFSInstance
from repro.core.local_search import RefinementReport, refine_solution, solve_wma_refined
from repro.core.solution import MCFSSolution
from repro.core.wma import WMASolver
from repro.datagen.instances import clustered_instance
from repro.errors import MatchingError
from repro.flow.sspa import assign_all
from repro.network import oracle as oracle_mod
from repro.network.ch import CHFacilityStream, ContractionHierarchy
from repro.obs import metrics
from tests.conftest import build_line_network, build_random_instance


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


class TestRefinement:
    def test_never_worse(self):
        for seed in range(10):
            inst = build_random_instance(seed, cap_range=(3, 6))
            base = solve(inst, method="wma")
            refined, report = refine_solution(inst, base)
            validate_solution(inst, refined)
            assert refined.objective <= base.objective + 1e-9
            assert report.final_objective == pytest.approx(refined.objective)

    def test_fixes_bad_starting_point(self):
        # Random selection is usually bad; refinement should close much
        # of the gap to optimal.
        improved = 0
        for seed in range(6):
            inst = build_random_instance(seed, l=10, k=3, cap_range=(4, 7))
            base = solve(inst, method="random", seed=seed)
            refined, report = refine_solution(inst, base, max_rounds=10)
            validate_solution(inst, refined)
            if refined.objective < base.objective - 1e-9:
                improved += 1
        assert improved >= 3

    def test_reaches_optimum_on_crafted_instance(self):
        # One obviously misplaced facility; the medoid move must find
        # the colocated candidate.
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(1, 2, 8),
            facility_nodes=(0, 2, 5, 8),
            capacities=(3, 3, 3, 3),
            k=2,
        )
        bad = MCFSSolution(
            selected=(0, 2),  # nodes 0 and 5
            assignment=(0, 0, 2),
            objective=1.0 + 2.0 + 3.0,
        )
        validate_solution(inst, bad)
        refined, report = refine_solution(inst, bad, max_rounds=10)
        validate_solution(inst, refined)
        assert refined.objective == pytest.approx(brute_force_optimum(inst))
        assert report.moves_accepted >= 1
        assert report.improvement > 0

    def test_capacity_respected_during_moves(self):
        # The tempting replacement lacks capacity and must be skipped.
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(1, 2, 3),
            facility_nodes=(0, 2, 9),
            capacities=(3, 1, 3),
            k=1,
        )
        base = MCFSSolution(
            selected=(0,), assignment=(0, 0, 0), objective=1 + 2 + 3
        )
        refined, _ = refine_solution(inst, base, max_rounds=5)
        validate_solution(inst, refined)
        # Facility 1 (node 2, capacity 1) cannot host all three.
        assert refined.selected == (0,)

    def test_report_fields(self):
        inst = build_random_instance(1, cap_range=(3, 6))
        base = solve(inst, method="wma")
        _, report = refine_solution(inst, base)
        assert isinstance(report, RefinementReport)
        assert report.rounds >= 1
        assert 0.0 <= report.improvement <= 1.0

    def test_meta_tagged(self):
        inst = build_random_instance(2, cap_range=(3, 6))
        base = solve(inst, method="hilbert")
        refined, _ = refine_solution(inst, base)
        assert refined.meta["algorithm"] == "hilbert+ls"
        assert "ls_moves" in refined.meta


class TestSolveWmaRefined:
    def test_valid_and_no_worse_than_wma(self):
        for seed in range(5):
            inst = build_random_instance(seed, cap_range=(3, 6))
            wma = solve(inst, method="wma")
            refined = solve_wma_refined(inst)
            validate_solution(inst, refined)
            assert refined.objective <= wma.objective + 1e-9
            assert refined.meta["algorithm"] == "wma+ls"


class TestSharedStreamPool:
    """Swap trials read one pool of streams through filtered cursors."""

    def test_wma_ls_opens_at_most_two_streams_per_customer_node(self):
        # WMA's own pool plus refinement's: one stream per distinct
        # customer node each, however many swap trials run.
        inst = clustered_instance(512, seed=0)
        reg = metrics.Registry()
        with metrics.use(reg):
            refined = solve(inst, method="wma-ls")
        assert refined.meta["ls_moves"] >= 1
        streams = reg.as_dict()["incremental.streams"]
        assert streams <= 2 * len(set(inst.customers))

    def test_refine_under_ch_matches_kernel_path(self, monkeypatch):
        inst = clustered_instance(256, seed=1)
        base = WMASolver(inst).solve()
        kernel, kernel_report = refine_solution(inst, base)
        assert kernel_report.moves_accepted >= 1

        resumes = []
        original = CHFacilityStream.resume_until

        def counting_resume(stream, allowed):
            resumes.append(stream.source)
            return original(stream, allowed)

        monkeypatch.setattr(CHFacilityStream, "resume_until", counting_resume)
        hierarchy = ContractionHierarchy.build(inst.network)
        reg = metrics.Registry()
        with metrics.use(reg), oracle_mod.use(hierarchy):
            fast, fast_report = refine_solution(inst, base)
        assert resumes, "filtered cursors never resumed a CH stream"
        assert reg.as_dict()["incremental.streams"] == 0
        assert fast.objective == kernel.objective
        assert fast.selected == kernel.selected
        assert fast.assignment == kernel.assignment
        assert fast_report.moves_accepted == kernel_report.moves_accepted
