"""Connected-component bookkeeping.

Algorithm 5 of the paper (``CoverComponents``) repairs a facility
selection so that every connected component of the network receives
enough capacity for its customers.  The :class:`ComponentStructure`
helper precomputes the node-to-component labelling and per-component
customer / candidate-facility membership that both Algorithm 5 and the
Hilbert baseline need.

For directed networks we use *weakly* connected components: reachability
for capacity accounting concerns which customers and facilities can
possibly interact at all.
"""

# Component labeling is a single O(n+m) pass at instance-build and
# validation time, *before* the solver's budget scope begins -- raising
# BudgetExceeded here would pre-empt the degraded-return salvage logic
# that only exists once a solver holds state.
# reprolint: disable=REP101

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.network.graph import Network


def component_labels(network: Network) -> np.ndarray:
    """Label each node with a component id ``0..n_components-1``.

    Components are numbered in the order of their smallest node id.
    Uses an iterative depth-first walk over the CSR list mirror
    (treating directed arcs as undirected, i.e. weak connectivity).
    """
    n = network.n_nodes
    indptr, indices, _ = network.csr_lists
    neighbours = [indices[indptr[u]:indptr[u + 1]] for u in range(n)]
    if network.directed:
        # Weak connectivity: walk every arc backwards too.
        for u in range(n):
            for v in indices[indptr[u]:indptr[u + 1]]:
                neighbours[v].append(u)

    labels = [-1] * n
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            for v in neighbours[stack.pop()]:
                if labels[v] < 0:
                    labels[v] = current
                    stack.append(v)
        current += 1
    return np.array(labels, dtype=np.int64)


def connected_components(network: Network) -> list[np.ndarray]:
    """Return node-id arrays, one per connected component."""
    labels = component_labels(network)
    n_comp = int(labels.max()) + 1 if labels.size else 0
    return [np.flatnonzero(labels == c) for c in range(n_comp)]


@dataclass
class ComponentStructure:
    """Customers and candidate facilities grouped by component.

    Attributes
    ----------
    labels:
        Component id per network node.
    customers_in:
        For each component, the list of customer *indices* (positions in
        the instance's customer sequence) located in it.
    facilities_in:
        For each component, the list of facility *indices* located in it.
    """

    labels: np.ndarray
    customers_in: list[list[int]]
    facilities_in: list[list[int]]

    @classmethod
    def build(
        cls,
        network: Network,
        customer_nodes: Sequence[int],
        facility_nodes: Sequence[int],
    ) -> ComponentStructure:
        """Group customers and facilities by their network component."""
        labels = component_labels(network)
        n_comp = int(labels.max()) + 1 if labels.size else 0
        customers_in: list[list[int]] = [[] for _ in range(n_comp)]
        facilities_in: list[list[int]] = [[] for _ in range(n_comp)]
        for idx, node in enumerate(customer_nodes):
            customers_in[labels[node]].append(idx)
        for idx, node in enumerate(facility_nodes):
            facilities_in[labels[node]].append(idx)
        return cls(
            labels=labels, customers_in=customers_in, facilities_in=facilities_in
        )

    @property
    def n_components(self) -> int:
        """Number of connected components."""
        return len(self.customers_in)

    def populated_components(self) -> list[int]:
        """Ids of components that contain at least one customer."""
        return [c for c, members in enumerate(self.customers_in) if members]

    def minimum_budget(self, capacities: Sequence[int]) -> int:
        """Minimum number of facilities any feasible solution must open.

        For each component ``g`` with customers, ``k_g`` is the size of the
        smallest capacity-descending prefix of the component's candidate
        facilities whose total capacity covers the component's customers
        (Theorem 3).  Returns ``sum_g k_g``; an unreachable component
        (customers but no candidates, or insufficient total capacity)
        yields a budget larger than any ``k``, signalled as ``len(capacities) + 1``
        plus the deficit so callers can detect infeasibility by comparing
        against ``k``.
        """
        total = 0
        for comp_id in self.populated_components():
            needed = len(self.customers_in[comp_id])
            caps = sorted(
                (capacities[j] for j in self.facilities_in[comp_id]), reverse=True
            )
            covered = 0
            k_g = 0
            for cap in caps:
                if covered >= needed:
                    break
                covered += cap
                k_g += 1
            if covered < needed:
                return len(capacities) + 1 + (needed - covered)
            total += k_g
        return total


def customers_per_component(
    structure: ComponentStructure,
) -> dict[int, int]:
    """Convenience map component id -> number of customers therein."""
    return {
        comp_id: len(members)
        for comp_id, members in enumerate(structure.customers_in)
        if members
    }
