"""Dijkstra shortest-path variants over :class:`~repro.network.graph.Network`.

The paper's algorithms need several flavours of Dijkstra:

* plain single-source distances (objective evaluation, baselines);
* multi-source distances (distance to the nearest selected facility, used
  by the BRNN baseline and Algorithm 4);
* bounded searches that stop past a radius (NLR construction);
* early-exit searches that stop once a target set is settled;
* full customer-facility distance matrices (exact MILP solver).

First-target searches (Algorithm 4's nearest unselected candidate) are
a :class:`~repro.network.incremental.NearestFacilityStream` asked for
its first facility.

All of them run over the CSR arrays of :class:`Network` with a binary heap
and lazy deletion, the standard textbook approach that performs well in
pure Python.

Two implementations coexist.  ``_run`` is the simple per-call reference
loop (fresh arrays every call); the batched entry points --
:func:`distance_matrix`, :func:`multi_source_lengths`,
:func:`eccentricity_bound` -- delegate to the preallocated
:class:`~repro.network.kernels.DijkstraWorkspace` kernel, which produces
bit-identical distances without the per-call allocation.
:func:`distance_matrix` additionally supports process-parallel fan-out
(``workers=``, see :mod:`repro.network.parallel`).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError
from repro.network.graph import Network
from repro.network.kernels import many_source_lengths, workspace_for
from repro.obs import metrics
from repro.runtime.budget import checkpoint as _budget_checkpoint

INF = math.inf


@dataclass
class DijkstraResult:
    """Outcome of a Dijkstra run.

    Attributes
    ----------
    dist:
        Array of length ``n_nodes``; ``inf`` for unreached nodes.
    parent:
        Predecessor of each node on its shortest path (``-1`` for sources
        and unreached nodes).
    settled:
        Node ids in the order they were settled (popped with final
        distance).
    """

    dist: np.ndarray
    parent: np.ndarray
    settled: list[int] = field(default_factory=list)

    # Post-solve O(path-length) reconstruction; budgets do not apply.
    def path_to(self, target: int) -> list[int]:  # reprolint: disable=REP101
        """Recover the node sequence from the source to ``target``.

        Raises
        ------
        GraphError
            If ``target`` was not reached.
        """
        if not np.isfinite(self.dist[target]):
            raise GraphError(f"node {target} was not reached")
        path = [target]
        while self.parent[path[-1]] >= 0:
            path.append(int(self.parent[path[-1]]))
        path.reverse()
        return path


def _run(
    network: Network,
    sources: Sequence[int],
    *,
    targets: set[int] | None = None,
    radius: float = INF,
    max_settled: int | None = None,
) -> DijkstraResult:
    """Core per-call Dijkstra loop (the legacy reference implementation).

    ``targets`` enables early exit once every target is settled; ``radius``
    prunes the search past a distance bound; ``max_settled`` caps the
    number of settled nodes.  ``targets`` is treated as read-only: the
    run counts down settled targets instead of consuming a copied set.

    The loop works on the plain-list CSR mirror and pushes only plain
    Python floats/ints into the heap -- numpy scalar boxing on heap
    comparisons used to dominate the cost of this function.
    """
    _budget_checkpoint()
    indptr, indices, weights = network.csr_lists
    n = network.n_nodes
    dist: list[float] = [INF] * n
    parent: list[int] = [-1] * n
    settled_order: list[int] = []
    done: list[bool] = [False] * n

    heap: list[tuple[float, int]] = []
    for s in sources:
        s = int(s)
        if not (0 <= s < n):
            raise GraphError(f"source {s} outside 0..{n - 1}")
        if dist[s] > 0.0:
            dist[s] = 0.0
            heapq.heappush(heap, (0.0, s))

    if targets is not None:
        target_set = (
            targets if isinstance(targets, (set, frozenset)) else set(targets)
        )
        remaining = len(target_set)
    else:
        target_set = None
        remaining = -1
    heappush, heappop = heapq.heappush, heapq.heappop
    # Batched instrumentation: locals in the loop, one flush on return.
    pops = 0
    relaxations = 0

    while heap:
        d, u = heappop(heap)
        pops += 1
        if done[u]:
            continue
        done[u] = True
        settled_order.append(u)
        if remaining >= 0:
            if u in target_set:
                remaining -= 1
            if remaining <= 0:
                break
        if max_settled is not None and len(settled_order) >= max_settled:
            break
        lo, hi = indptr[u], indptr[u + 1]
        for pos in range(lo, hi):
            v = indices[pos]
            nd = d + weights[pos]
            if nd < dist[v] and nd <= radius:
                dist[v] = nd
                parent[v] = u
                relaxations += 1
                heappush(heap, (nd, v))

    reg = metrics.active()
    reg.counter("dijkstra.runs").add()
    reg.counter("dijkstra.pops").add(pops)
    reg.counter("dijkstra.relaxations").add(relaxations)
    reg.counter("dijkstra.settled").add(len(settled_order))
    return DijkstraResult(
        dist=np.asarray(dist, dtype=np.float64),
        parent=np.asarray(parent, dtype=np.int64),
        settled=settled_order,
    )


def shortest_path_lengths(
    network: Network,
    source: int,
    *,
    targets: Iterable[int] | None = None,
    radius: float = INF,
) -> DijkstraResult:
    """Single-source shortest-path distances from ``source``.

    Parameters
    ----------
    network:
        The graph to search.
    source:
        Start node.
    targets:
        Optional target set; the search stops once all targets are settled,
        so distances to non-target nodes may be missing (``inf``).
    radius:
        Optional search radius; nodes farther than ``radius`` are not
        explored.
    """
    target_set = set(int(t) for t in targets) if targets is not None else None
    return _run(network, [source], targets=target_set, radius=radius)


def shortest_path(
    network: Network, source: int, target: int
) -> tuple[float, list[int]]:
    """Distance and node path between two nodes.

    Returns ``(distance, path)``; raises :class:`GraphError` when no path
    exists.
    """
    result = _run(network, [source], targets={int(target)})
    if not np.isfinite(result.dist[target]):
        raise GraphError(f"no path from {source} to {target}")
    return float(result.dist[target]), result.path_to(target)


def multi_source_lengths(
    network: Network,
    sources: Iterable[int],
    *,
    radius: float = INF,
    workers: int | None = None,
) -> DijkstraResult:
    """Distances from each node to its nearest source.

    Used to compute, e.g., the distance from every node to the nearest
    selected facility in one sweep.  Runs on the preallocated workspace
    kernel; with ``workers > 1`` (or ``REPRO_WORKERS`` set) and enough
    work, the sweep fans out per connected component across a process
    pool (identical distances; see :mod:`repro.network.parallel`).
    """
    source_list = [int(s) for s in sources]
    if not source_list:
        n = network.n_nodes
        return DijkstraResult(
            dist=np.full(n, INF), parent=np.full(n, -1, dtype=np.int64)
        )
    from repro.network.parallel import ParallelDistanceEngine, resolve_workers

    if resolve_workers(workers) > 1:
        with ParallelDistanceEngine(network, workers) as engine:
            dist, parent, settled = engine.multi_source_lengths(
                source_list, radius=radius
            )
        return DijkstraResult(dist=dist, parent=parent, settled=settled)
    ws = workspace_for(network)
    ws.run(source_list, radius=radius)
    return DijkstraResult(
        dist=ws.dist_array(),
        parent=ws.parent_array(),
        settled=list(ws.settled()),
    )


def distance_matrix(
    network: Network,
    sources: Sequence[int],
    targets: Sequence[int],
    *,
    workers: int | None = None,
) -> np.ndarray:
    """Shortest-path distance matrix between two node sets.

    Runs one early-exit Dijkstra per source on the preallocated
    workspace kernel.  Entry ``[i, j]`` is the distance from
    ``sources[i]`` to ``targets[j]`` (``inf`` if unreachable).  This is
    the input to the exact MILP solver and to brute-force reference
    checks in tests.

    Parameters
    ----------
    workers:
        Process count for fanning source chunks across a pool (default:
        the ``REPRO_WORKERS`` environment variable, else serial).  Small
        calls fall back to the serial kernel; results are bit-identical
        either way.
    """
    source_list = [int(s) for s in sources]
    target_arr = np.asarray([int(t) for t in targets], dtype=np.int64)

    from repro.network.parallel import ParallelDistanceEngine, resolve_workers

    if resolve_workers(workers) > 1:
        with ParallelDistanceEngine(network, workers) as engine:
            return engine.distance_matrix(source_list, target_arr)
    # Early exit is only sound when all targets can be settled; when the
    # network is disconnected the run simply exhausts the component.
    return many_source_lengths(
        network, [[s] for s in source_list], targets=target_arr
    )


def eccentricity_bound(network: Network, source: int) -> float:
    """Largest finite shortest-path distance from ``source``.

    A convenience used by data generators and tests to scale radii.
    Runs on the workspace kernel; settlement order is non-decreasing in
    distance, so the eccentricity is the last settled node's distance.
    """
    ws = workspace_for(network)
    ws.run([int(source)])
    settled = ws.settled()
    return float(ws.dist_of(settled[-1])) if settled else 0.0
