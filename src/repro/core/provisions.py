"""Special provisions of WMA (Algorithms 4 and 5).

Two repairs applied after the main loop of Algorithm 1:

* :func:`select_greedy` (Algorithm 4) -- when fewer than ``k`` facilities
  already cover all customers, spend the remaining budget near the
  worst-served customers: repeatedly find the customer whose distance to
  the current selection is largest and open the candidate facility nearest
  to it.  Coverage is retained and the cost objective can only improve.

* :func:`cover_components` (Algorithm 5) -- when the selection leaves some
  customers uncoverable (demands exhausted), rebalance capacity across
  connected components: move budget from the most over-provisioned
  component (dropping its lowest-capacity selected facility) to the most
  deficient one (opening its highest-capacity unselected candidate), until
  every component's selected capacity covers its customers.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.instance import MCFSInstance
from repro.errors import InfeasibleInstanceError
from repro.network.dijkstra import multi_source_lengths
from repro.network.incremental import NearestFacilityStream


def select_greedy(
    instance: MCFSInstance, selected: Sequence[int]
) -> list[int]:
    """Pad ``selected`` with facilities near under-served customers (Alg. 4).

    Returns a new list of facility indices of size ``min(k, l)``.  Each
    round computes every customer's distance to the nearest selected
    facility (one multi-source Dijkstra), picks the worst-served customer
    ``s*`` (unreachable customers, i.e. components with no selected
    facility yet, count as infinitely far), and opens the unselected
    candidate nearest to ``s*``.
    """
    result = list(selected)
    chosen = set(result)
    node_of = instance.facility_nodes
    customers = instance.customers

    while len(result) < min(instance.k, instance.l):
        selected_nodes = [node_of[j] for j in result]
        dist = multi_source_lengths(instance.network, selected_nodes).dist
        # Customer distances to the nearest selected facility; inf floats
        # to the top, prioritizing components with no facility yet.
        worst_i = max(range(len(customers)), key=lambda i: dist[customers[i]])
        s_star = customers[worst_i]

        open_candidates = [
            node_of[j] for j in range(instance.l) if j not in chosen
        ]
        found = NearestFacilityStream(
            instance.network, s_star, open_candidates
        ).facility_at(0)
        if found is None:
            # The worst customer's component has no unselected candidate;
            # fall back to any unselected candidate (budget still helps
            # other components).
            fallback = next(j for j in range(instance.l) if j not in chosen)
            result.append(fallback)
            chosen.add(fallback)
            continue
        node, _ = found
        j_new = instance.facility_index_of_node()[node]
        result.append(j_new)
        chosen.add(j_new)
    return result


def cover_components(
    instance: MCFSInstance, selected: Sequence[int]
) -> list[int]:
    """Rebalance a selection so every component can cover its customers.

    Implements Algorithm 5.  ``g.p`` of a component is the total capacity
    of selected facilities inside it minus its customer count; while some
    component is negative, swap the lowest-capacity selected facility out
    of the highest-``g.p`` component for the highest-capacity unselected
    candidate of the lowest-``g.p`` component.

    Raises
    ------
    InfeasibleInstanceError
        When the instance cannot be repaired (per-component capacity or
        budget is fundamentally insufficient, cf. Theorem 3).
    """
    structure = instance.component_structure()
    if structure.minimum_budget(instance.capacities) > instance.k:
        raise InfeasibleInstanceError(
            "budget k cannot supply every component with enough capacity"
        )

    caps = instance.capacities
    labels = structure.labels
    n_comp = structure.n_components
    selected_set = set(int(j) for j in selected)

    comp_of_fac = [int(labels[node]) for node in instance.facility_nodes]
    customers_count = np.zeros(n_comp, dtype=np.int64)
    for node in instance.customers:
        customers_count[labels[node]] += 1

    surplus = -customers_count.astype(np.float64)
    for j in selected_set:
        surplus[comp_of_fac[j]] += caps[j]

    guard = 4 * instance.k * max(1, n_comp) + 16
    while surplus.min() < 0:
        guard -= 1
        if guard < 0:
            raise InfeasibleInstanceError(
                "cover_components failed to converge; instance is likely "
                "infeasible despite passing the budget pre-check"
            )
        g_m = int(np.argmin(surplus))
        # Highest-capacity unselected candidate in the deficient component.
        incoming = [
            j
            for j in structure.facilities_in[g_m]
            if j not in selected_set
        ]
        if not incoming:
            raise InfeasibleInstanceError(
                f"component {g_m} lacks capacity: all its candidates are "
                f"already selected yet customers remain uncovered"
            )
        j_in = max(incoming, key=lambda j: caps[j])

        # Unspent budget: open the candidate outright.  Swapping cannot
        # repair an under-sized selection (a size-preserving swap inside
        # one deficient component just trades capacities back and forth
        # until the guard trips), and callers may legitimately arrive
        # here with fewer than k facilities (e.g. Hilbert's bucketing
        # emits one facility per non-empty bucket).
        if len(selected_set) < min(instance.k, instance.l):
            selected_set.add(j_in)
            surplus[comp_of_fac[j_in]] += caps[j_in]
            continue

        # Lowest-capacity selected facility in the highest-surplus
        # component (skipping the receiving component when possible, so
        # the swap is a genuine transfer).
        donor_order = np.argsort(-surplus)
        j_out = None
        for g_M in donor_order:
            g_M = int(g_M)
            outgoing = [
                j
                for j in structure.facilities_in[g_M]
                if j in selected_set and not (g_M == g_m and j == j_in)
            ]
            if outgoing:
                j_out = min(outgoing, key=lambda j: caps[j])
                break
        if j_out is None:
            raise InfeasibleInstanceError(
                "no selected facility available to swap out"
            )

        selected_set.remove(j_out)
        selected_set.add(j_in)
        surplus[comp_of_fac[j_out]] -= caps[j_out]
        surplus[comp_of_fac[j_in]] += caps[j_in]

    return sorted(selected_set)
