"""WMA Naive: the non-rewiring ablation baseline (Section VII-A).

Identical outer loop to WMA -- demands, set-cover check, exploration
vector -- but "instead of using an exact bipartite matching, WMA Naive
uses a greedy procedure to satisfy customer demands: in each iteration,
it processes customers in a randomly generated order and assigns each
customer to its closest ``d_i`` candidate facilities that have not yet
reached their capacities".

Because the greedy step never reassigns, a facility that is full stays
full; skipped facilities are therefore consumed (never revisited).  The
final customer-to-selection assignment is greedy too (nearest selected
facility with free capacity, customers in random order); when greed
paints itself into a corner, the optimal matcher repairs the assignment
so the reported objective is always for a *feasible* solution.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.instance import MCFSInstance
from repro.core.provisions import cover_components, select_greedy
from repro.core.set_cover import check_cover
from repro.core.solution import MCFSSolution
from repro.core.validation import check_feasibility
from repro.core.wma import capacity_finalize
from repro.network.incremental import StreamPool
from repro.runtime.options import solver_api


def _greedy_fill(
    cursors,
    matched: list[set[int]],
    load: list[int],
    capacities: list[int],
    fac_index: dict[int, int],
    i: int,
    want: int,
) -> None:
    """Greedily match customer ``i`` to ``want`` more facilities."""
    cursor = cursors[i]
    while want > 0:
        item = cursor.take()
        if item is None:
            return
        node, _dist = item
        j = fac_index[node]
        if load[j] >= capacities[j] or j in matched[i]:
            continue
        matched[i].add(j)
        load[j] += 1
        want -= 1


@solver_api("wma-naive", uses=("seed",))
def solve_wma_naive(
    instance: MCFSInstance, *, seed: int = 0
) -> MCFSSolution:
    """Run WMA Naive.

    Parameters
    ----------
    instance:
        The problem to solve.
    seed:
        Seed of the random customer processing order.
    """
    started = time.perf_counter()
    check_feasibility(instance)
    rng = np.random.default_rng(seed)

    m, l, k = instance.m, instance.l, instance.k
    capacities = list(instance.capacities)
    fac_index = instance.facility_index_of_node()
    pool = StreamPool(instance.network, instance.facility_nodes)
    cursors = [pool.cursor_for(node) for node in instance.customers]

    demand = [1] * m
    max_demand = [l] * m
    matched: list[set[int]] = [set() for _ in range(m)]
    load = [0] * l
    last_used = [-1] * l
    iteration = 0
    guard = m * l + 2
    selected: list[int] = []
    fully_covered = False

    while True:
        order = rng.permutation(m)
        for i in order:
            want = demand[i] - len(matched[i])
            if want > 0:
                _greedy_fill(
                    cursors, matched, load, capacities, fac_index, i, want
                )
                if len(matched[i]) < demand[i]:
                    # Stream exhausted or everything reachable is full.
                    max_demand[i] = len(matched[i])
                    demand[i] = max_demand[i]

        sigma = [set() for _ in range(l)]
        for i in range(m):
            for j in matched[i]:
                sigma[j].add(i)
        cover = check_cover(sigma, m, k, last_used)
        for j in cover.selected:
            last_used[j] = iteration
        selected = cover.selected
        fully_covered = cover.fully_covered

        deltas = [
            1 if (not cover.covered[i] and demand[i] < max_demand[i]) else 0
            for i in range(m)
        ]
        iteration += 1
        if not any(deltas) or iteration >= guard:
            break
        for i in range(m):
            demand[i] += deltas[i]

    if len(selected) < k:
        selected = select_greedy(instance, selected)
    if not fully_covered:
        selected = cover_components(instance, selected)

    selected, assignment, objective, repaired = _final_greedy_assignment(
        instance, selected, rng
    )
    runtime = time.perf_counter() - started
    return MCFSSolution(
        selected=tuple(selected),
        assignment=tuple(assignment),
        objective=objective,
        meta={
            "algorithm": "wma-naive",
            "runtime_sec": runtime,
            "iterations": iteration,
            "assignment_repaired": repaired,
        },
    )


def _final_greedy_assignment(
    instance: MCFSInstance, selected: list[int], rng: np.random.Generator
) -> tuple[list[int], list[int], float, bool]:
    """Greedy nearest-free-facility assignment onto ``selected``.

    Returns ``(selected, assignment, objective, repaired)``; ``repaired``
    is True when greed failed and the optimal matcher had to finish the
    job (repairing the selection if it cannot serve everyone).
    """
    sub_nodes = [instance.facility_nodes[j] for j in selected]
    sub_caps = [instance.capacities[j] for j in selected]
    pool = StreamPool(instance.network, sub_nodes)
    sub_index = {node: idx for idx, node in enumerate(sub_nodes)}

    load = [0] * len(selected)
    assignment = [-1] * instance.m
    total = 0.0
    for i in rng.permutation(instance.m):
        cursor = pool.cursor_for(instance.customers[i])
        while True:
            item = cursor.take()
            if item is None:
                break
            node, dist = item
            j_sub = sub_index[node]
            if load[j_sub] < sub_caps[j_sub]:
                load[j_sub] += 1
                assignment[i] = selected[j_sub]
                total += dist
                break

    if all(j >= 0 for j in assignment):
        return selected, assignment, total, False

    # Greedy got stuck; fall back to the optimal matcher for feasibility.
    selected, result, _ = capacity_finalize(instance, selected)
    return selected, [selected[j] for j in result.assignment], result.cost, True
