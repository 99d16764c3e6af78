"""The BRNN (Bichromatic Reverse Nearest Neighbor) baseline.

Section III-A describes how Optimal Location Query techniques can be
applied iteratively to MCFS: each customer has a *Nearest Location
Region* (NLR) -- the network nodes strictly closer to the customer than
its nearest already-selected facility -- and the MaxSum rule opens the
candidate overlapped by the most NLRs.

Per the paper's experimental setup, the first facility is the candidate
minimizing the aggregate distance to all customers (the 1-median seed of
the Figure 2 example); each subsequent facility is the MaxSum candidate
with ties broken arbitrarily (lowest index here, for determinism).  The
final customer assignment is produced by the optimal capacity-aware
matcher (the paper runs SIA for this step).

The paper finds this baseline both slow (it "has to repeatedly calculate
NLR intersections") and weak in quality; the benchmarks reproduce both
effects.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.instance import MCFSInstance
from repro.core.solution import MCFSSolution
from repro.core.validation import check_feasibility
from repro.core.wma import capacity_finalize
from repro.network.dijkstra import (
    distance_matrix,
    multi_source_lengths,
    shortest_path_lengths,
)
from repro.network.parallel import ParallelDistanceEngine, resolve_workers
from repro.runtime.options import solver_api


def _first_facility(
    instance: MCFSInstance, engine: ParallelDistanceEngine | None = None
) -> int:
    """The 1-median seed: candidate minimizing summed customer distance.

    Customers that cannot reach a candidate contribute a large constant
    so that candidates reaching *more* customers always win.  The
    customer-to-candidate distances come from one batched (optionally
    process-parallel) distance matrix.
    """
    fac_nodes = list(instance.facility_nodes)
    customers = list(instance.customers)
    if engine is not None:
        mat = engine.distance_matrix(customers, fac_nodes)
    else:
        mat = distance_matrix(instance.network, customers, fac_nodes)
    sums = np.zeros(instance.l)
    unreachable = np.zeros(instance.l, dtype=np.int64)
    # Accumulate customer by customer: same summation order (hence the
    # same floats and tie-breaks) as the historical per-customer loop.
    for row in mat:
        finite = np.isfinite(row)
        sums[finite] += row[finite]
        unreachable[~finite] += 1
    # Lexicographic: fewest unreachable customers, then smallest sum.
    order = np.lexsort((sums, unreachable))
    return int(order[0])


def _nearest_selected(
    instance: MCFSInstance,
    selected_nodes: list[int],
    engine: ParallelDistanceEngine | None,
) -> np.ndarray:
    """Distance from every node to its nearest selected facility."""
    if engine is not None:
        dist, _, _ = engine.multi_source_lengths(selected_nodes)
        return dist
    return multi_source_lengths(instance.network, selected_nodes).dist


@solver_api("brnn", uses=("workers",))
def solve_brnn(
    instance: MCFSInstance, *, workers: int | None = None
) -> MCFSSolution:
    """Run the iterative BRNN / MaxSum baseline.

    ``workers`` fans the seed distance matrix and the per-iteration
    nearest-facility sweeps over a process pool (default: the
    ``REPRO_WORKERS`` environment variable, else serial); the selection
    and objective are identical for any worker count.
    """
    started = time.perf_counter()
    check_feasibility(instance)

    n_workers = resolve_workers(workers)
    engine = (
        ParallelDistanceEngine(instance.network, n_workers)
        if n_workers > 1
        else None
    )
    try:
        return _solve_brnn(instance, engine, started)
    finally:
        if engine is not None:
            engine.close()


def _solve_brnn(
    instance: MCFSInstance,
    engine: ParallelDistanceEngine | None,
    started: float,
) -> MCFSSolution:
    selected: list[int] = [_first_facility(instance, engine)]
    fac_nodes = list(instance.facility_nodes)
    candidate_of_node = instance.facility_index_of_node()

    while len(selected) < instance.k:
        selected_nodes = [fac_nodes[j] for j in selected]
        nearest = _nearest_selected(instance, selected_nodes, engine)

        scores = np.zeros(instance.l, dtype=np.int64)
        for node in instance.customers:
            radius = nearest[node]
            # NLR: nodes strictly closer to the customer than its nearest
            # selected facility.  With no reachable facility the NLR is
            # the whole component.
            result = shortest_path_lengths(instance.network, node, radius=radius)
            for v in result.settled:
                if result.dist[v] < radius:
                    j = candidate_of_node.get(v)
                    if j is not None:
                        scores[j] += 1

        scores[selected] = -1
        j_new = int(np.argmax(scores))
        if scores[j_new] <= 0:
            # No candidate attracts anyone; fall back to any unselected
            # candidate so the budget is still spent.
            remaining = [j for j in range(instance.l) if j not in selected]
            if not remaining:
                break
            j_new = remaining[0]
        selected.append(j_new)

    selected, result, repaired = capacity_finalize(instance, selected)
    assignment = [selected[j_sub] for j_sub in result.assignment]
    runtime = time.perf_counter() - started
    return MCFSSolution(
        selected=tuple(selected),
        assignment=tuple(assignment),
        objective=result.cost,
        meta={
            "algorithm": "brnn",
            "runtime_sec": runtime,
            "selection_repaired": repaired,
        },
    )
