"""The Hilbert space-filling-curve baseline (Section VII-A).

Following Mitra [17], the baseline divides the customer set into ``k``
buckets of consecutive customers along the Hilbert curve and opens, for
each bucket, the candidate facility closest to the bucket's centroid.
Customers are then optimally re-assigned to the opened facilities with a
single capacity-aware bipartite matching (the paper: "Hilbert selects
locations first, as if capacities were uniform, and then assigns
customers to facilities according to nonuniform capacities using
bipartite matching").

As the paper notes for Figure 6c, Hilbert "considers each component
separately, calculating required facilities per component proportionally
to the number of customers in the component" -- we apportion the budget
``k`` across connected components with largest-remainder rounding, and
floor each component at its Theorem-3 minimum ``k_g`` so the final
matching stays feasible.  If the capacity of the chosen set still falls
short (possible with nonuniform capacities), Algorithm 5's component
repair is applied before matching.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.instance import MCFSInstance
from repro.core.provisions import cover_components
from repro.core.solution import MCFSSolution
from repro.core.validation import check_feasibility
from repro.core.wma import capacity_finalize
from repro.geometry.hilbert_curve import hilbert_sort
from repro.runtime.options import solver_api


def _component_budgets(
    instance: MCFSInstance,
) -> list[tuple[list[int], list[int], int]]:
    """Split the budget across components.

    Returns one ``(customer_indices, facility_indices, budget)`` triple
    per populated component.  Budgets are proportional to customer counts
    (largest-remainder), floored at the component's minimum feasible
    ``k_g`` and capped at its candidate count.
    """
    structure = instance.component_structure()
    populated = structure.populated_components()
    caps = instance.capacities

    mins: dict[int, int] = {}
    maxs: dict[int, int] = {}
    for comp in populated:
        needed = len(structure.customers_in[comp])
        comp_caps = sorted(
            (caps[j] for j in structure.facilities_in[comp]), reverse=True
        )
        covered = 0
        k_g = 0
        for cap in comp_caps:
            if covered >= needed:
                break
            covered += cap
            k_g += 1
        mins[comp] = k_g
        maxs[comp] = len(structure.facilities_in[comp])

    # Proportional shares, then repair to respect floors/caps and sum k.
    m = instance.m
    shares = {
        comp: instance.k * len(structure.customers_in[comp]) / m
        for comp in populated
    }
    budget = {comp: max(mins[comp], int(shares[comp])) for comp in populated}
    for comp in populated:
        budget[comp] = min(budget[comp], maxs[comp])

    total = sum(budget.values())
    remainders = sorted(
        populated, key=lambda c: shares[c] - int(shares[c]), reverse=True
    )
    idx = 0
    while total < instance.k and any(
        budget[c] < maxs[c] for c in populated
    ):
        comp = remainders[idx % len(remainders)]
        if budget[comp] < maxs[comp]:
            budget[comp] += 1
            total += 1
        idx += 1
        if idx > 4 * instance.k + len(populated):
            break
    while total > instance.k:
        # Trim the most over-floored component.
        comp = max(populated, key=lambda c: budget[c] - mins[c])
        if budget[comp] <= mins[comp]:
            break
        budget[comp] -= 1
        total -= 1

    return [
        (
            structure.customers_in[comp],
            structure.facilities_in[comp],
            budget[comp],
        )
        for comp in populated
    ]


@solver_api("hilbert")
def solve_hilbert(instance: MCFSInstance) -> MCFSSolution:
    """Run the Hilbert bucketing baseline.

    The terminal method of every default fallback chain: geometry-only
    selection is cheap enough that the runtime runs it without budget
    checkpoints, so it answers even on a fully consumed deadline.

    Raises
    ------
    InfeasibleInstanceError
        When the instance has no feasible solution at all.
    """
    started = time.perf_counter()
    check_feasibility(instance)
    coords = instance.network.coords
    fac_coords = coords[list(instance.facility_nodes)]

    selected: list[int] = []
    for cust_idx, fac_idx, k_comp in _component_budgets(instance):
        if k_comp == 0:
            continue
        pts = coords[[instance.customers[i] for i in cust_idx]]
        order = hilbert_sort(pts)
        bucket_size = math.ceil(len(cust_idx) / k_comp)
        available = set(fac_idx) - set(selected)
        for b in range(0, len(cust_idx), bucket_size):
            chunk = order[b : b + bucket_size]
            if chunk.size == 0 or not available:
                break
            centroid = pts[chunk].mean(axis=0)
            # sorted: argmin tie-breaks must not depend on set order
            cand = sorted(available)
            deltas = fac_coords[cand] - centroid
            j_best = cand[int(np.argmin((deltas**2).sum(axis=1)))]
            selected.append(j_best)
            available.discard(j_best)

    # Capacity repair (needed with nonuniform or tight capacities).
    structure = instance.component_structure()
    labels = structure.labels
    cap_by_comp: dict[int, int] = {}
    need_by_comp: dict[int, int] = {}
    for j in selected:
        comp = int(labels[instance.facility_nodes[j]])
        cap_by_comp[comp] = cap_by_comp.get(comp, 0) + instance.capacities[j]
    for node in instance.customers:
        comp = int(labels[node])
        need_by_comp[comp] = need_by_comp.get(comp, 0) + 1
    repaired = any(
        cap_by_comp.get(comp, 0) < need for comp, need in need_by_comp.items()
    )
    if repaired:
        selected = cover_components(instance, selected)

    selected, result, rematched = capacity_finalize(instance, selected)
    repaired = repaired or rematched
    assignment = [selected[j_sub] for j_sub in result.assignment]
    runtime = time.perf_counter() - started
    return MCFSSolution(
        selected=tuple(selected),
        assignment=tuple(assignment),
        objective=result.cost,
        meta={
            "algorithm": "hilbert",
            "runtime_sec": runtime,
            "selection_repaired": repaired,
        },
    )
