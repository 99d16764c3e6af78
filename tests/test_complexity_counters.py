"""Empirical checks of the paper's Section VI complexity claims.

Theorem 2 bounds WMA far above what happens in practice ("WMA performs
far below this worst-case complexity thanks to its pruning ability").
These tests confirm the *structural* bounds the analysis relies on and
the practical gap, using the solver's built-in counters.
"""

from __future__ import annotations

from repro.core.wma import WMASolver
from repro.datagen.instances import clustered_instance, uniform_instance
from repro.flow.sspa import assign_all
from repro.obs import metrics


class TestCounters:
    def test_edges_bounded_by_complete_bipartite_graph(self):
        for seed in range(4):
            inst = uniform_instance(256, seed=seed)
            sol = WMASolver(inst).solve()
            assert sol.meta["edges_materialized"] <= inst.m * inst.l

    def test_iterations_bounded_by_m_times_l(self):
        for seed in range(4):
            inst = clustered_instance(256, seed=seed)
            sol = WMASolver(inst).solve()
            assert sol.meta["iterations"] <= inst.m * inst.l + 2

    def test_pruning_gap_is_large(self):
        """The practical edge count is a tiny fraction of the bound."""
        inst = uniform_instance(1024, seed=3)
        sol = WMASolver(inst).solve()
        fraction = sol.meta["edges_materialized"] / (inst.m * inst.l)
        assert fraction < 0.05

    def test_dijkstra_runs_scale_with_assignments_not_bound(self):
        """Worst case allows m*l Dijkstras per FindPair; practice is
        a small constant per assignment."""
        # sspa.dijkstra_runs counts heap searches only.  On this
        # instance 69 residual searches need a heap (the final
        # assignment's); on uniform_instance(512) none does, so a
        # ratio there would check nothing.
        inst = clustered_instance(512, seed=0)
        reg = metrics.Registry()
        with metrics.use(reg):
            sol = WMASolver(inst).solve()
        runs = reg.as_dict()["sspa.dijkstra_runs"]
        assert runs > 0
        # Total G_b Dijkstra runs per materialized edge stays small.
        assert runs / max(1, sol.meta["edges_materialized"]) < 10.0

    def test_counters_monotone_in_trace(self):
        inst = clustered_instance(256, seed=1)
        solver = WMASolver(inst)
        solver.solve()
        edges = solver.trace.edges_materialized
        assert edges == sorted(edges)


class TestUnifiedCounters:
    """The `repro.obs` counters must agree with the legacy ad-hoc ones
    (`BipartiteState.edges_materialized`, `BipartiteState.dijkstra_runs`,
    `MCFSSolution.meta`) before the legacy ones can be removed."""

    def test_assign_all_unified_matches_state_counters(self):
        inst = uniform_instance(256, seed=2)
        reg = metrics.Registry()
        with metrics.use(reg):
            result = assign_all(
                inst.network,
                inst.customers,
                inst.facility_nodes,
                inst.capacities,
            )
        flat = reg.as_dict()
        state = result.state
        assert flat["incremental.edges_materialized"] == (
            state.edges_materialized
        )
        assert flat["sspa.dijkstra_runs"] == state.dijkstra_runs
        # One augmentation per customer: assign_all's invariant.
        assert flat["sspa.augmentations"] == state.m

    def test_wma_unified_matches_solution_meta(self):
        inst = uniform_instance(256, seed=0)
        reg = metrics.Registry()
        with metrics.use(reg):
            sol = WMASolver(inst).solve()
        flat = reg.as_dict()
        assert flat["wma.iterations"] == sol.meta["iterations"]
        # The meta counters cover the main-phase BipartiteState only; the
        # unified ones also include the final-assignment state, so they
        # dominate but never undershoot.
        assert (
            flat["incremental.edges_materialized"]
            >= sol.meta["edges_materialized"]
        )
        assert flat["sspa.dijkstra_runs"] >= sol.meta["dijkstra_runs"]
        # Peak G_b size is exactly the main phase's final edge count.
        assert flat["bipartite.peak_edges"] >= sol.meta["edges_materialized"]
