"""Uncapacitated k-median local search, with capacity repair (baseline).

Section III of the paper positions classic local-search facility-location
heuristics (Korupolu et al. [2], Arya-style single swaps) as inapplicable
to MCFS because "they accommodate neither nonuniform nor hard capacity
constraints".  This baseline operationalizes that argument:

1. solve the *uncapacitated* k-median on the candidate set with the
   standard single-swap local search (customers go to their nearest open
   facility; swap one open facility for a closed one while it improves);
2. confront the resulting selection with the real capacities: repair it
   with Algorithm 5 when per-component capacity falls short, and compute
   the final capacity-aware optimal assignment.

On loose capacities this is a strong baseline (location quality is all
that matters); as occupancy tightens, the capacity-blind selection pays
-- exactly the gap WMA is built to close.  The ablation benchmark
measures this crossover.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.instance import MCFSInstance
from repro.core.solution import MCFSSolution
from repro.core.validation import check_feasibility
from repro.core.wma import capacity_finalize
from repro.errors import BudgetExceeded
from repro.network.dijkstra import distance_matrix, multi_source_lengths
from repro.obs import metrics
from repro.runtime.budget import checkpoint, grace
from repro.runtime.options import solver_api


def _uncapacitated_cost(
    instance: MCFSInstance, selected: list[int]
) -> float:
    """Sum of each customer's distance to its nearest open facility."""
    nodes = [instance.facility_nodes[j] for j in selected]
    dist = multi_source_lengths(instance.network, nodes).dist
    total = 0.0
    for node in instance.customers:
        d = dist[node]
        if not np.isfinite(d):
            return float("inf")
        total += float(d)
    return total


def _swap_candidates(
    instance: MCFSInstance,
    selected: list[int],
    rng: np.random.Generator,
    pool_size: int,
) -> list[int]:
    """Closed candidates to consider for swapping in.

    Sampling keeps each round linear in the pool size rather than ``l``;
    customer nodes that are candidates are always included (opening at a
    demand point is the classic high-value move).
    """
    closed = [j for j in range(instance.l) if j not in selected]
    if len(closed) <= pool_size:
        return closed
    customer_nodes = set(instance.customers)
    preferred = [
        j for j in closed if instance.facility_nodes[j] in customer_nodes
    ]
    sampled = [
        closed[int(i)]
        for i in rng.choice(len(closed), size=pool_size, replace=False)
    ]
    return list(dict.fromkeys(preferred + sampled))[: max(pool_size, len(preferred))]


def _greedy_init(
    instance: MCFSInstance,
    rng: np.random.Generator,
    pool_size: int,
    workers: int | None = None,
) -> list[int]:
    """Greedy k-median seeding: add the facility reducing cost most.

    Classic greedy over a candidate pool (customer-hosting candidates
    plus a random sample, to keep each round linear).  Maintains the
    per-customer distance to the nearest open facility incrementally: one
    Dijkstra per *evaluated* candidate (batched into a distance matrix,
    optionally fanned over ``workers`` processes), reused across rounds
    through the cached distance columns.
    """
    customer_nodes = list(dict.fromkeys(instance.customers))
    customer_set = set(customer_nodes)
    pool = [
        j
        for j in range(instance.l)
        if instance.facility_nodes[j] in customer_set
    ]
    extra = [j for j in range(instance.l) if j not in set(pool)]
    if extra:
        take = min(len(extra), max(pool_size, instance.k))
        pool += [
            extra[int(i)]
            for i in rng.choice(len(extra), size=take, replace=False)
        ]
    if len(pool) < instance.k:
        missing = [j for j in range(instance.l) if j not in set(pool)]
        pool += missing[: instance.k - len(pool)]

    # Distance column per pool candidate (facility -> every customer).
    matrix = distance_matrix(
        instance.network,
        [instance.facility_nodes[j] for j in pool],
        list(instance.customers),
        workers=workers,
    )
    columns: dict[int, np.ndarray] = {
        j: matrix[idx] for idx, j in enumerate(pool)
    }

    best_per_customer = np.full(instance.m, np.inf)
    selected: list[int] = []
    selected_set: set[int] = set()
    for _ in range(instance.k):
        best_j, best_gain = None, -1.0
        for j in pool:
            if j in selected_set:
                continue
            improved = np.minimum(best_per_customer, columns[j])
            finite = np.where(np.isfinite(improved), improved, 1e12)
            current = np.where(
                np.isfinite(best_per_customer), best_per_customer, 1e12
            )
            gain = float((current - finite).sum())
            if gain > best_gain:
                best_gain, best_j = gain, j
        assert best_j is not None
        selected.append(best_j)
        selected_set.add(best_j)
        best_per_customer = np.minimum(best_per_customer, columns[best_j])
    return sorted(selected)


@solver_api(
    "kmedian-ls",
    uses=("seed", "workers"),
    extras=("max_rounds", "pool_size"),
)
def solve_kmedian_ls(
    instance: MCFSInstance,
    *,
    seed: int = 0,
    max_rounds: int = 20,
    pool_size: int = 64,
    workers: int | None = None,
) -> MCFSSolution:
    """Uncapacitated swap local search + capacity repair baseline.

    Parameters
    ----------
    instance:
        The MCFS instance; capacities are ignored during the search and
        enforced afterwards.
    seed:
        Randomizes the initial selection and the swap sampling.
    max_rounds:
        Bound on improvement rounds (each scans every open facility).
    pool_size:
        Closed candidates sampled per swap evaluation.
    workers:
        Process count for the greedy-init distance-matrix fan-out
        (default: the ``REPRO_WORKERS`` environment variable, else
        serial).  The search trajectory is identical for any count.
    """
    started = time.perf_counter()
    check_feasibility(instance)
    rng = np.random.default_rng(seed)

    selected: list[int] | None = None
    cost = float("inf")
    degraded = False
    try:
        selected = _greedy_init(instance, rng, pool_size, workers)
        cost = _uncapacitated_cost(instance, selected)

        for _ in range(max_rounds):
            improved = False
            for pos in range(len(selected)):
                pool = _swap_candidates(instance, selected, rng, pool_size)
                best_j, best_cost = None, cost
                for j_new in pool:
                    checkpoint()
                    trial = list(selected)
                    trial[pos] = j_new
                    trial_cost = _uncapacitated_cost(instance, trial)
                    if trial_cost < best_cost - 1e-9:
                        best_j, best_cost = j_new, trial_cost
                if best_j is not None:
                    selected[pos] = best_j
                    cost = best_cost
                    improved = True
            if not improved:
                break
    except BudgetExceeded:
        # No feasible state to salvage before greedy seeding completes;
        # past that point the current selection is as good as any swap
        # round left it, so finish with it under grace.
        if selected is None or len(selected) < instance.k:
            raise
        degraded = True
        metrics.active().counter("runtime.degraded_returns").add()
    selected = sorted(selected)

    if degraded:
        with grace():
            selected, result, repaired = capacity_finalize(instance, selected)
    else:
        try:
            selected, result, repaired = capacity_finalize(instance, selected)
        except BudgetExceeded:
            degraded = True
            metrics.active().counter("runtime.degraded_returns").add()
            with grace():
                selected, result, repaired = capacity_finalize(instance, selected)

    assignment = [selected[j_sub] for j_sub in result.assignment]
    runtime = time.perf_counter() - started
    meta = {
        "algorithm": "kmedian-ls",
        "runtime_sec": runtime,
        "uncapacitated_cost": cost,
        "selection_repaired": repaired,
    }
    if degraded:
        meta["degraded"] = True
    return MCFSSolution(
        selected=tuple(selected),
        assignment=tuple(assignment),
        objective=result.cost,
        meta=meta,
    )
