"""Local-search refinement of MCFS solutions (extension).

The paper's related work surveys local-search heuristics for facility
location [2], [8] but notes they "accommodate neither nonuniform nor hard
capacity constraints"; its future-work-flavoured positioning invites a
capacity-aware refinement stage.  This module provides one, usable as a
post-processing step after any solver:

* **medoid moves** (Lloyd-style): replace a selected facility by the
  candidate that minimizes the summed distance to the customers the
  facility currently serves, provided the candidate's capacity suffices;
* **swap moves**: close one selected facility and open the unselected
  candidate nearest to its service cluster.

Every accepted move is validated by re-running the *optimal* bipartite
assignment on the modified selection, so refined solutions are always
feasible and their objectives exact.  The search uses first-improvement
and stops after a full round without progress -- a monotone descent, so
termination is guaranteed.

This is an *extension*, not part of the paper's WMA; the ablation
benchmark ``benchmarks/test_ablation_local_search.py`` quantifies how
much headroom it finds over raw WMA and the baselines.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.instance import MCFSInstance
from repro.core.solution import MCFSSolution
from repro.errors import BudgetExceeded, MatchingError
from repro.flow.sspa import assign_all
from repro.network.dijkstra import shortest_path_lengths
from repro.network.incremental import StreamPool
from repro.obs import metrics
from repro.runtime.options import solver_api


@dataclass
class RefinementReport:
    """Summary of one :func:`refine_solution` run."""

    rounds: int
    moves_accepted: int
    initial_objective: float
    final_objective: float

    @property
    def improvement(self) -> float:
        """Relative objective reduction achieved."""
        if self.initial_objective <= 0:
            return 0.0
        return 1.0 - self.final_objective / self.initial_objective


def _cluster_cost_sums(
    instance: MCFSInstance, members: Sequence[int]
) -> np.ndarray:
    """Summed distance from each candidate facility to the given customers.

    One Dijkstra per member customer; entries are ``inf`` when any member
    cannot reach the candidate.
    """
    fac_nodes = np.asarray(instance.facility_nodes)
    sums = np.zeros(instance.l)
    for i in members:
        dist = shortest_path_lengths(
            instance.network, instance.customers[i]
        ).dist
        sums += dist[fac_nodes]
    return sums


def _reassign(
    instance: MCFSInstance,
    selection: list[int],
    pool: StreamPool,
) -> tuple[list[int], float] | None:
    """Optimal assignment onto ``selection``; None when infeasible.

    ``pool`` streams towards every candidate facility, so the trials of
    one refinement share each customer's search and read it through
    cursors filtered to ``selection``.
    """
    sub_nodes = [instance.facility_nodes[j] for j in selection]
    sub_caps = [instance.capacities[j] for j in selection]
    try:
        result = assign_all(
            instance.network, instance.customers, sub_nodes, sub_caps,
            pool=pool,
        )
    except MatchingError:
        return None
    return [selection[j] for j in result.assignment], result.cost


def refine_solution(
    instance: MCFSInstance,
    solution: MCFSSolution,
    *,
    max_rounds: int = 5,
    seed: int = 0,
) -> tuple[MCFSSolution, RefinementReport]:
    """Improve a feasible solution by medoid and swap moves.

    Parameters
    ----------
    instance:
        The problem instance.
    solution:
        A feasible starting solution (from any solver).
    max_rounds:
        Upper bound on improvement rounds; each round scans every
        selected facility once.
    seed:
        Order in which facilities are scanned (first-improvement makes
        the outcome order-dependent).

    Returns
    -------
    (refined_solution, report):
        The refined solution (same object shape, new objective) and a
        :class:`RefinementReport`.  The refined objective is never worse
        than the input's.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    selection = list(solution.selected)
    assignment = list(solution.assignment)
    objective = solution.objective
    accepted = 0
    rounds = 0
    pool = StreamPool(instance.network, instance.facility_nodes)

    for _ in range(max_rounds):
        rounds += 1
        improved = False
        scan_order = rng.permutation(len(selection))
        for pos in scan_order:
            j_old = selection[pos]
            members = [
                i for i, j in enumerate(assignment) if j == j_old
            ]
            if not members:
                continue
            sums = _cluster_cost_sums(instance, members)
            # Rank candidates by service cost for this cluster; try the
            # best few replacements with sufficient capacity.
            order = np.argsort(sums)
            tried = 0
            for j_new in order:
                j_new = int(j_new)
                if j_new == j_old:
                    break  # current facility is already the medoid
                if j_new in selection:
                    continue
                if not np.isfinite(sums[j_new]):
                    break
                if instance.capacities[j_new] < len(members):
                    continue
                tried += 1
                if tried > 3:
                    break
                candidate_selection = list(selection)
                candidate_selection[pos] = j_new
                outcome = _reassign(instance, candidate_selection, pool)
                if outcome is None:
                    continue
                new_assignment, new_objective = outcome
                if new_objective < objective - 1e-9:
                    selection = candidate_selection
                    assignment = new_assignment
                    objective = new_objective
                    accepted += 1
                    improved = True
                    break
        if not improved:
            break

    refined = MCFSSolution(
        selected=tuple(selection),
        assignment=tuple(assignment),
        objective=objective,
        meta={
            **solution.meta,
            "algorithm": f"{solution.algorithm}+ls",
            "runtime_sec": solution.runtime_sec
            + (time.perf_counter() - started),
            "ls_moves": accepted,
            "ls_rounds": rounds,
        },
    )
    report = RefinementReport(
        rounds=rounds,
        moves_accepted=accepted,
        initial_objective=solution.objective,
        final_objective=objective,
    )
    return refined, report


@solver_api(
    "wma-ls",
    uses=("seed",),
    extras=("max_rounds", "demand_policy", "threshold_rule", "tie_breaking"),
)
def solve_wma_refined(
    instance: MCFSInstance, *, max_rounds: int = 5, seed: int = 0, **wma_kwargs
) -> MCFSSolution:
    """Convenience: WMA followed by local-search refinement.

    Under a cooperative budget the refinement rounds are best-effort: a
    budget expiry during refinement returns the (feasible) WMA base
    solution, marked degraded.
    """
    from repro.core.wma import WMASolver

    base = WMASolver(instance, **wma_kwargs).solve()
    try:
        refined, _ = refine_solution(
            instance, base, max_rounds=max_rounds, seed=seed
        )
    except BudgetExceeded:
        metrics.active().counter("runtime.degraded_returns").add()
        base.meta["degraded"] = True
        return base
    return refined
