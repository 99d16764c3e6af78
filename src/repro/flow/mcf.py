"""General-purpose min-cost flow (successive shortest paths).

The bipartite matcher in :mod:`repro.flow.sspa` is a heavily specialized
min-cost-flow solver; this module exposes the general machinery for
arbitrary directed flow networks -- node supplies/demands, arc capacities
and costs -- so downstream users can model variants the bipartite shape
does not fit (e.g. facilities with shared upstream depots, or edge
throughput limits, which the paper explicitly leaves out: "a network with
no throughput constraints on edges").

Algorithm: successive shortest paths with Johnson potentials.  Initial
potentials come from Bellman-Ford, so negative arc *costs* are accepted
(negative *cycles* are rejected).  Integral capacities/supplies yield an
integral optimal flow, as usual.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.runtime.budget import checkpoint as _budget_checkpoint

INF = math.inf


class FlowError(ReproError):
    """Raised for malformed flow networks or infeasible flow problems."""


@dataclass
class _Arc:
    head: int
    capacity: float
    cost: float
    flow: float = 0.0
    partner: int = -1  # index of the reverse arc


@dataclass
class FlowResult:
    """Outcome of :func:`min_cost_flow`.

    Attributes
    ----------
    cost:
        Total cost of the flow.
    flows:
        Flow per input arc, in insertion order.
    """

    cost: float
    flows: list[float] = field(default_factory=list)


class FlowNetwork:
    """A directed flow network with node supplies.

    Positive ``supply`` injects flow at a node, negative consumes it;
    supplies must sum to zero.  Arcs are added with capacity and cost.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise FlowError(f"n_nodes must be positive, got {n_nodes}")
        self.n = int(n_nodes)
        self.supply = [0.0] * self.n
        self._arcs: list[_Arc] = []
        self._out: list[list[int]] = [[] for _ in range(self.n)]
        self._input_arcs: list[int] = []

    def set_supply(self, node: int, value: float) -> None:
        """Set a node's supply (+) or demand (-)."""
        self._check(node)
        self.supply[node] = float(value)

    def add_arc(
        self, tail: int, head: int, capacity: float, cost: float
    ) -> int:
        """Add a directed arc; returns its index (for reading flow)."""
        self._check(tail)
        self._check(head)
        if capacity < 0:
            raise FlowError(f"arc capacity must be >= 0, got {capacity}")
        forward = _Arc(head=head, capacity=float(capacity), cost=float(cost))
        backward = _Arc(head=tail, capacity=0.0, cost=-float(cost))
        fi = len(self._arcs)
        self._arcs.append(forward)
        bi = len(self._arcs)
        self._arcs.append(backward)
        forward.partner = bi
        backward.partner = fi
        self._out[tail].append(fi)
        self._out[head].append(bi)
        self._input_arcs.append(fi)
        return len(self._input_arcs) - 1

    def _check(self, node: int) -> None:
        if not (0 <= node < self.n):
            raise FlowError(f"node {node} outside 0..{self.n - 1}")

    # ------------------------------------------------------------------
    def solve(self) -> FlowResult:
        """Compute a min-cost flow satisfying all supplies.

        Raises
        ------
        FlowError
            When supplies do not balance, a negative cycle exists, or the
            network cannot carry the required flow.
        """
        if abs(sum(self.supply)) > 1e-9:
            raise FlowError(
                f"supplies must sum to zero, got {sum(self.supply)}"
            )

        potential = self._bellman_ford_potentials()
        excess = list(self.supply)

        while True:
            _budget_checkpoint()
            sources = [v for v in range(self.n) if excess[v] > 1e-12]
            if not sources:
                break
            source = sources[0]
            dist, parent_arc = self._dijkstra(source, potential)
            # Nearest deficit node reachable from the source.
            target = None
            best = INF
            for v in range(self.n):
                if excess[v] < -1e-12 and dist[v] < best:
                    best = dist[v]
                    target = v
            if target is None:
                raise FlowError(
                    "infeasible: no path from a supply node to any demand"
                )
            # Update potentials (only nodes with finite labels).
            for v in range(self.n):
                if dist[v] < INF:
                    potential[v] += dist[v]
            # Bottleneck along the path.
            push = min(excess[source], -excess[target])
            v = target
            while v != source:
                arc = self._arcs[parent_arc[v]]
                push = min(push, arc.capacity - arc.flow)
                v = self._arcs[arc.partner].head
            # Augment.
            v = target
            while v != source:
                arc = self._arcs[parent_arc[v]]
                arc.flow += push
                self._arcs[arc.partner].flow -= push
                v = self._arcs[arc.partner].head
            excess[source] -= push
            excess[target] += push

        cost = sum(
            self._arcs[fi].flow * self._arcs[fi].cost
            for fi in self._input_arcs
        )
        flows = [self._arcs[fi].flow for fi in self._input_arcs]
        return FlowResult(cost=cost, flows=flows)

    # ------------------------------------------------------------------
    def _bellman_ford_potentials(self) -> list[float]:
        """Valid potentials even with negative arc costs.

        Runs Bellman-Ford from a virtual super-source connected to every
        node with cost 0; detects negative cycles.
        """
        dist = [0.0] * self.n
        for _round_idx in range(self.n):
            _budget_checkpoint()
            changed = False
            for v in range(self.n):
                for ai in self._out[v]:
                    arc = self._arcs[ai]
                    if arc.capacity - arc.flow <= 1e-12:
                        continue
                    nd = dist[v] + arc.cost
                    if nd < dist[arc.head] - 1e-12:
                        dist[arc.head] = nd
                        changed = True
            if not changed:
                return dist
        raise FlowError("network contains a negative-cost cycle")

    def _dijkstra(
        self, source: int, potential: list[float]
    ) -> tuple[list[float], list[int]]:
        dist = [INF] * self.n
        parent_arc = [-1] * self.n
        dist[source] = 0.0
        done = [False] * self.n
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            _budget_checkpoint()
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for ai in self._out[u]:
                arc = self._arcs[ai]
                if arc.capacity - arc.flow <= 1e-12:
                    continue
                rc = arc.cost + potential[u] - potential[arc.head]
                nd = d + rc
                if nd < dist[arc.head] - 1e-12:
                    dist[arc.head] = nd
                    parent_arc[arc.head] = ai
                    heapq.heappush(heap, (nd, arc.head))
        return dist, parent_arc


def min_cost_flow(
    n_nodes: int,
    arcs: list[tuple[int, int, float, float]],
    supplies: dict[int, float],
) -> FlowResult:
    """Convenience wrapper: solve min-cost flow in one call.

    Parameters
    ----------
    n_nodes:
        Number of nodes (ids ``0..n_nodes-1``).
    arcs:
        ``(tail, head, capacity, cost)`` per arc, in order; the result's
        ``flows`` aligns with this order.
    supplies:
        Node -> supply (+) / demand (-); unlisted nodes are transit.
    """
    network = FlowNetwork(n_nodes)
    for node, value in supplies.items():
        network.set_supply(node, value)
    for tail, head, capacity, cost in arcs:
        network.add_arc(tail, head, capacity, cost)
    return network.solve()
