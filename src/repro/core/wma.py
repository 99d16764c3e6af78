"""The Wide Matching Algorithm (Algorithm 1 of the paper).

WMA progressively enriches candidate facilities with potential serviced
customers until a set of ``k`` facilities can service the full customer
set within capacities:

1. every customer with unmet demand is matched to one more facility by
   the SSPA matcher (:func:`repro.flow.sspa.find_pair`), rewiring earlier
   assignments when beneficial;
2. the greedy set-cover check (:func:`repro.core.set_cover.check_cover`)
   asks whether the best ``k`` facilities cover everyone;
3. uncovered customers raise their demand (exploration vector) and the
   loop repeats.

After the loop, Algorithm 4 pads under-full selections, Algorithm 5
repairs per-component capacity, and a final SSPA pass computes the
*optimal* assignment of all customers onto the selected set (the paper's
recursive call with ``F_p = F``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.demand import DemandPolicy, SelectiveDemandPolicy
from repro.core.instance import MCFSInstance
from repro.core.provisions import cover_components, select_greedy
from repro.core.set_cover import CoverGains, check_cover
from repro.core.solution import MCFSSolution
from repro.core.validation import check_feasibility
from repro.errors import BudgetExceeded, MatchingError
from repro.flow.bipartite import BipartiteState
from repro.flow.sspa import (
    AssignmentResult,
    ThresholdRule,
    assign_all,
    find_pair,
)
from repro.network.incremental import StreamPool
from repro.obs import metrics, tracing
from repro.runtime.budget import checkpoint, grace
from repro.runtime.options import solver_api


@dataclass
class WMATrace:
    """Per-iteration diagnostics, the data behind the paper's Figure 12b.

    Attributes
    ----------
    covered:
        Customers covered by the selection at the end of each iteration.
    matching_time:
        Seconds spent in the matching phase per iteration.
    cover_time:
        Seconds spent in the set-cover phase per iteration.
    edges_materialized:
        Cumulative ``G_b`` edges revealed, per iteration.
    """

    covered: list[int] = field(default_factory=list)
    matching_time: list[float] = field(default_factory=list)
    cover_time: list[float] = field(default_factory=list)
    edges_materialized: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of main-loop iterations recorded."""
        return len(self.covered)

    def rows(self) -> list[dict[str, float]]:
        """Flat per-iteration rows for reporting."""
        return [
            {
                "iteration": t + 1,
                "covered": self.covered[t],
                "matching_time": round(self.matching_time[t], 6),
                "cover_time": round(self.cover_time[t], 6),
                "edges": self.edges_materialized[t],
            }
            for t in range(self.iterations)
        ]


class WMASolver:
    """Configurable Wide Matching Algorithm solver.

    Parameters
    ----------
    instance:
        The MCFS instance to solve.
    demand_policy:
        Exploration-vector policy (default: the paper's selective policy).
    threshold_rule:
        Pruning bound used by the matcher (Theorem 1 vs. the tau-prime
        bound of U et al., for the Section V ablation).
    tie_breaking:
        Set-cover tie-breaking: ``"lru"`` (paper), ``"index"``
        (ablation), or ``"cost"`` (extension: prefer the facility with
        the cheapest service cluster among gain ties -- markedly more
        stable on fragmented, tie-dense instances).
    """

    def __init__(
        self,
        instance: MCFSInstance,
        *,
        demand_policy: DemandPolicy | None = None,
        threshold_rule: ThresholdRule = ThresholdRule.THEOREM1,
        tie_breaking: str = "lru",
    ) -> None:
        self.instance = instance
        self.demand_policy = demand_policy or SelectiveDemandPolicy()
        self.threshold_rule = threshold_rule
        self.tie_breaking = tie_breaking
        self.trace = WMATrace()

    def solve(self) -> MCFSSolution:
        """Run WMA and return a feasible, audited-shape solution.

        Raises
        ------
        InfeasibleInstanceError
            When no feasible solution exists (Theorem 3 budget check).
        """
        started = time.perf_counter()
        instance = self.instance
        check_feasibility(instance)
        self.trace = WMATrace()

        state = BipartiteState(
            instance.network,
            instance.customers,
            instance.facility_nodes,
            instance.capacities,
        )
        m, l, k = instance.m, instance.l, instance.k
        demand = [1] * m
        max_demand = [l] * m
        last_used = [-1] * l

        # Demands grow by >= 1 per non-final iteration, bounded by m * l.
        iteration_guard = m * l + 2

        degraded = False
        try:
            self._main_loop(
                state, demand, max_demand, last_used, iteration_guard
            )
        except BudgetExceeded:
            # Budget ran out mid-exploration: salvage whatever selection
            # the last completed cover pass produced (possibly empty --
            # the provisions below then build a greedy one) and let the
            # repair/assignment finalize run to completion under grace.
            degraded = True
            metrics.active().counter("runtime.degraded_returns").add()
        iteration = self.trace.iterations
        selected = list(self._selected)
        fully_covered = self._fully_covered and not degraded

        if degraded:
            with grace():
                selected, assignment, objective = self._finish(
                    selected, fully_covered, state
                )
        else:
            try:
                selected, assignment, objective = self._finish(
                    selected, fully_covered, state
                )
            except BudgetExceeded:
                # Expired during the finalize itself: redo it under
                # grace -- the result is still a complete assignment,
                # only the exploration depth is what the budget allowed.
                degraded = True
                metrics.active().counter("runtime.degraded_returns").add()
                with grace():
                    selected, assignment, objective = self._finish(
                        selected, False, state
                    )

        runtime = time.perf_counter() - started
        reg = metrics.active()
        reg.counter("wma.solves").add()
        reg.counter("wma.iterations").add(iteration)
        reg.gauge("bipartite.peak_edges").set_max(state.edges_materialized)
        reg.timer("wma.solve").observe(runtime)
        meta = {
            "algorithm": "wma",
            "runtime_sec": runtime,
            "iterations": iteration,
            "edges_materialized": state.edges_materialized,
            "dijkstra_runs": state.dijkstra_runs,
            "threshold_rule": self.threshold_rule.value,
            "demand_policy": getattr(self.demand_policy, "name", "custom"),
            "tie_breaking": self.tie_breaking,
        }
        if degraded:
            meta["degraded"] = True
        return MCFSSolution(
            selected=tuple(selected),
            assignment=tuple(assignment),
            objective=objective,
            meta=meta,
        )

    def _main_loop(
        self,
        state: BipartiteState,
        demand: list[int],
        max_demand: list[int],
        last_used: list[int],
        iteration_guard: int,
    ) -> None:
        """Algorithm 1's exploration loop (lines 2-9).

        Leaves the best selection seen so far in ``self._selected`` /
        ``self._fully_covered`` after every iteration, so a
        :class:`BudgetExceeded` escaping a checkpoint still leaves a
        salvageable state behind.
        """
        instance = self.instance
        m, l, k = instance.m, instance.l, instance.k
        iteration = 0
        self._selected: list[int] = []
        self._fully_covered = False
        gains = CoverGains(state.assigned)

        while True:
            checkpoint()
            with tracing.span("wma.iteration", k=iteration + 1):
                t0 = time.perf_counter()
                with tracing.span("wma.matching"):
                    for i in range(m):
                        while state.assignment_count(i) < demand[i]:
                            try:
                                target = find_pair(state, i, self.threshold_rule)
                            except MatchingError:
                                # No facility with free capacity is
                                # reachable: freeze this customer's
                                # demand at what it got.
                                max_demand[i] = state.assignment_count(i)
                                demand[i] = max_demand[i]
                                break
                            # Only the path's endpoint changes |sigma_j|.
                            gains.grow(target)
                t1 = time.perf_counter()

                costs = None
                if self.tie_breaking == "cost":
                    costs = [
                        sum(state.edges[i][j] for i in state.assigned[j])
                        for j in range(l)
                    ]
                with tracing.span("wma.cover"):
                    cover = check_cover(
                        state.assigned,
                        m,
                        k,
                        last_used,
                        tie_breaking=self.tie_breaking,
                        costs=costs,
                        gains=gains,
                    )
                t2 = time.perf_counter()
            for j in cover.selected:
                last_used[j] = iteration

            self._selected = cover.selected
            self._fully_covered = cover.fully_covered
            self.trace.covered.append(sum(cover.covered))
            self.trace.matching_time.append(t1 - t0)
            self.trace.cover_time.append(t2 - t1)
            self.trace.edges_materialized.append(state.edges_materialized)

            deltas = self.demand_policy.deltas(demand, cover.covered, max_demand)
            iteration += 1
            if not any(deltas) or iteration >= iteration_guard:
                break
            for i in range(m):
                demand[i] += deltas[i]

    def _finish(
        self,
        selected: list[int],
        fully_covered: bool,
        state: BipartiteState,
    ) -> tuple[list[int], list[int], float]:
        """Provisions + final optimal assignment (Algorithm 1, lines 10-15)."""
        instance = self.instance
        with tracing.span("wma.provisions"):
            if len(selected) < instance.k:
                selected = select_greedy(instance, selected)
            if not fully_covered:
                selected = cover_components(instance, selected)
        with tracing.span("wma.final_assign"):
            selected, result, _ = capacity_finalize(
                instance, selected, pool=state.pool
            )
        assignment = [selected[j_sub] for j_sub in result.assignment]
        return selected, assignment, result.cost


def capacity_finalize(
    instance: MCFSInstance,
    selected: list[int],
    *,
    pool: StreamPool | None = None,
) -> tuple[list[int], AssignmentResult, bool]:
    """Optimally assign all customers to ``selected`` (Algorithm 1, lines 14-15).

    When the selection cannot serve every customer -- a component short
    of capacity, possible when coverage came through facilities the set
    cover then dropped, or when a baseline chose without capacities --
    it is repaired once with Algorithm 5 (:func:`cover_components`) and
    assigned again.  ``pool`` shares an existing stream pool's
    network-level Dijkstra work.

    Returns ``(selected, result, repaired)``; ``result.assignment``
    indexes into the returned ``selected``.
    """
    try:
        return selected, _assign(instance, selected, pool), False
    except MatchingError:
        selected = cover_components(instance, selected)
        return selected, _assign(instance, selected, pool), True


def _assign(
    instance: MCFSInstance, selected: list[int], pool: StreamPool | None
) -> AssignmentResult:
    return assign_all(
        instance.network,
        instance.customers,
        [instance.facility_nodes[j] for j in selected],
        [instance.capacities[j] for j in selected],
        pool=pool,
    )


@solver_api(
    "wma", extras=("demand_policy", "threshold_rule", "tie_breaking")
)
def solve_wma(instance: MCFSInstance, **kwargs) -> MCFSSolution:
    """Solve an instance with WMA (Direct variant). See :class:`WMASolver`."""
    return WMASolver(instance, **kwargs).solve()


@solver_api(
    "wma-uf", extras=("demand_policy", "threshold_rule", "tie_breaking")
)
def solve_wma_uniform_first(
    instance: MCFSInstance, **kwargs
) -> MCFSSolution:
    """The Uniform-First (UF) WMA variant of Section VII-F.

    First selects facilities as if every candidate had the average
    capacity, then reassigns customers under the true nonuniform
    capacities with one optimal bipartite matching (repairing the
    selection first if the true capacities make it infeasible).

    The uniform proxy starts at the rounded-up mean capacity; if that
    proxy is infeasible (flattening capacities can starve a component
    that relied on one big facility), the capacity is doubled until the
    proxy becomes feasible.  As a last resort the Direct variant's
    selection is used.
    """
    import math

    from repro.errors import InfeasibleInstanceError

    started = time.perf_counter()
    check_feasibility(instance)
    proxy_capacity = max(1, math.ceil(instance.mean_capacity))
    inner = None
    for _ in range(12):
        uniform = instance.with_uniform_capacities(proxy_capacity)
        try:
            inner = WMASolver(uniform, **kwargs).solve()
            break
        except InfeasibleInstanceError:
            proxy_capacity *= 2
    if inner is None:
        inner = WMASolver(instance, **kwargs).solve()

    selected, result, repaired = capacity_finalize(
        instance, list(inner.selected)
    )
    assignment = [selected[j_sub] for j_sub in result.assignment]
    runtime = time.perf_counter() - started
    meta = {
        "algorithm": "wma-uf",
        "runtime_sec": runtime,
        "iterations": inner.meta.get("iterations"),
        "selection_repaired": repaired,
    }
    if inner.meta.get("degraded"):
        meta["degraded"] = True
    return MCFSSolution(
        selected=tuple(selected),
        assignment=tuple(assignment),
        objective=result.cost,
        meta=meta,
    )
