"""Reusable, allocation-free Dijkstra kernels over CSR adjacency.

Every one-shot network Dijkstra runs here (the resumable
nearest-facility streams live in :mod:`repro.network.incremental`).
Repeated runs over the same :class:`~repro.network.graph.Network` --
the exact solver's distance matrix, the baselines' sweeps, solution
validation, the benchmark harness -- would otherwise pay ``O(n)``
allocation and numpy-scalar boxing thousands of times.

:class:`DijkstraWorkspace` removes both costs:

* the ``dist``/``parent`` scratch arrays and the settled marks are
  preallocated once per workspace and *never* cleared between runs --
  each run bumps a generation counter and entries are valid only when
  their generation stamp matches, so a reset is ``O(1)``;
* the CSR arrays are used as plain Python lists
  (:attr:`Network.csr_lists <repro.network.graph.Network.csr_lists>`),
  which the pure-Python inner loop indexes several times faster than
  numpy arrays;
* only plain Python floats/ints ever enter the binary heap, avoiding
  numpy-scalar comparison overhead on every heap operation.

:func:`many_source_lengths` batches several runs over one workspace, and
every entry point of :mod:`repro.network.dijkstra` runs on the shared
workspace of :func:`workspace_for`.  Each run flushes the
``dijkstra.runs/pops/relaxations/settled`` counters once.
"""

from __future__ import annotations

import heapq
import math
import weakref
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import GraphError
from repro.network.graph import Network
from repro.obs import metrics
from repro.runtime.budget import checkpoint as _budget_checkpoint

INF = math.inf


class DijkstraWorkspace:
    """Preallocated scratch space for repeated Dijkstra runs on one graph.

    A workspace is bound to one adjacency structure (a
    :class:`~repro.network.graph.Network` or raw CSR lists) and owns four
    length-``n`` scratch arrays: distances, parents, and two generation-
    stamp arrays marking which entries belong to the current run.  A
    run gives *bit-identical* distances to a textbook per-call Dijkstra
    with fresh arrays: same relaxation order, same heap tie-breaking,
    same IEEE-754 arithmetic.

    Results are queried through :meth:`gather`, :meth:`dist_array`,
    :meth:`parent_array`, :meth:`settled`, and :meth:`dist_of`, and stay
    valid until the next :meth:`run` on the same workspace.
    """

    __slots__ = (
        "_n",
        "_indptr",
        "_indices",
        "_weights",
        "_dist",
        "_parent",
        "_seen",
        "_done",
        "_settled",
        "_touched",
        "_generation",
    )

    def __init__(self, network: Network) -> None:
        indptr, indices, weights = network.csr_lists
        self._init_from(indptr, indices, weights, network.n_nodes)

    @classmethod
    def from_csr(
        cls,
        indptr: Sequence[int],
        indices: Sequence[int],
        weights: Sequence[float],
        n_nodes: int,
    ) -> DijkstraWorkspace:
        """Build a workspace from raw CSR arrays (no Network required).

        Used by process-pool workers that receive the adjacency through
        shared memory rather than a pickled :class:`Network`.
        """
        ws = cls.__new__(cls)
        ws._init_from(list(indptr), list(indices), list(weights), int(n_nodes))
        return ws

    def _init_from(
        self,
        indptr: list[int],
        indices: list[int],
        weights: list[float],
        n: int,
    ) -> None:
        self._n = n
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self._dist: list[float] = [INF] * n
        self._parent: list[int] = [-1] * n
        self._seen: list[int] = [0] * n
        self._done: list[int] = [0] * n
        self._settled: list[int] = []
        self._touched: list[int] = []
        self._generation = 0

    @property
    def n_nodes(self) -> int:
        """Number of nodes of the bound graph."""
        return self._n

    @property
    def generation(self) -> int:
        """Stamp of the most recent run (0 before any run)."""
        return self._generation

    def run(
        self,
        sources: Iterable[int],
        *,
        targets: Iterable[int] | None = None,
        radius: float = INF,
        max_settled: int | None = None,
    ) -> int:
        """Execute one Dijkstra over the preallocated scratch arrays.

        ``targets`` enables early exit once every (reachable, in-range)
        target is settled, ``radius`` prunes past a distance bound,
        ``max_settled`` caps the settled count.  ``targets`` is *never*
        mutated or copied when it is already a set.  Returns the new
        generation stamp.
        """
        # One network Dijkstra is the distance layer's unit of work for
        # cooperative budgets: interrupt between runs, never mid-run.
        _budget_checkpoint()
        gen = self._generation + 1
        self._generation = gen
        n = self._n
        dist = self._dist
        parent = self._parent
        seen = self._seen
        done = self._done
        indptr = self._indptr
        indices = self._indices
        weights = self._weights
        settled = self._settled
        settled.clear()
        touched = self._touched
        touched.clear()

        heap: list[tuple[float, int]] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        for s in sources:
            s = int(s)
            if not (0 <= s < n):
                raise GraphError(f"source {s} outside 0..{n - 1}")
            if seen[s] != gen:
                seen[s] = gen
                dist[s] = 0.0
                parent[s] = -1
                touched.append(s)
                heappush(heap, (0.0, s))

        if targets is not None:
            target_set = (
                targets
                if isinstance(targets, (set, frozenset))
                else {int(t) for t in targets}
            )
            remaining = len(target_set)
        else:
            target_set = None
            remaining = -1

        pops = 0
        relaxations = 0
        while heap:
            d, u = heappop(heap)
            pops += 1
            if done[u] == gen:
                continue
            done[u] = gen
            settled.append(u)
            if remaining >= 0:
                if u in target_set:
                    remaining -= 1
                if remaining <= 0:
                    break
            if max_settled is not None and len(settled) >= max_settled:
                break
            lo, hi = indptr[u], indptr[u + 1]
            for pos in range(lo, hi):
                nd = d + weights[pos]
                if nd <= radius:
                    v = indices[pos]
                    if seen[v] != gen:
                        seen[v] = gen
                        touched.append(v)
                        dist[v] = nd
                        parent[v] = u
                        relaxations += 1
                        heappush(heap, (nd, v))
                    elif nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        relaxations += 1
                        heappush(heap, (nd, v))

        reg = metrics.active()
        reg.counter("dijkstra.runs").add()
        reg.counter("dijkstra.pops").add(pops)
        reg.counter("dijkstra.relaxations").add(relaxations)
        reg.counter("dijkstra.settled").add(len(settled))
        return gen

    # ------------------------------------------------------------------
    # Result views (valid until the next run on this workspace)
    # ------------------------------------------------------------------
    def dist_of(self, node: int) -> float:
        """Distance of ``node`` in the latest run (``inf`` if unreached)."""
        return self._dist[node] if self._seen[node] == self._generation else INF

    def parent_of(self, node: int) -> int:
        """Predecessor of ``node`` in the latest run (``-1`` if none)."""
        return (
            self._parent[node]
            if self._seen[node] == self._generation
            else -1
        )

    def settled(self) -> list[int]:
        """Nodes settled by the latest run, in settlement order.

        A live view into workspace state; copy before the next run if the
        order must outlive it.
        """
        return self._settled

    def touched(self) -> list[int]:
        """Nodes whose distance was set by the latest run (live view)."""
        return self._touched

    def gather(self, nodes: Sequence[int]) -> list[float]:
        """Distances of ``nodes`` in the latest run, as plain floats."""
        gen = self._generation
        seen = self._seen
        dist = self._dist
        return [dist[t] if seen[t] == gen else INF for t in nodes]

    def dist_array(self) -> np.ndarray:
        """Full length-``n`` distance vector of the latest run."""
        out = np.full(self._n, INF)
        touched = self._touched
        if touched:
            dist = self._dist
            out[touched] = [dist[t] for t in touched]
        return out

    def parent_array(self) -> np.ndarray:
        """Full length-``n`` predecessor vector of the latest run."""
        out = np.full(self._n, -1, dtype=np.int64)
        touched = self._touched
        if touched:
            parent = self._parent
            out[touched] = [parent[t] for t in touched]
        return out


# ----------------------------------------------------------------------
# Per-network workspace cache
# ----------------------------------------------------------------------
_WORKSPACES: weakref.WeakKeyDictionary[Network, DijkstraWorkspace] = (
    weakref.WeakKeyDictionary()
)


def workspace_for(network: Network) -> DijkstraWorkspace:
    """The shared workspace of ``network`` (created on first use).

    One workspace per live network, dropped automatically when the
    network is garbage-collected.  Callers must extract results before
    triggering another kernel run on the same network.
    """
    ws = _WORKSPACES.get(network)
    if ws is None:
        ws = DijkstraWorkspace(network)
        _WORKSPACES[network] = ws
    return ws


def checked_nodes(n_nodes: int, nodes: Iterable[int]) -> list[int]:
    """``nodes`` as a list of ints; :class:`GraphError` if one is not a
    node of an ``n_nodes``-node network."""
    out = [int(v) for v in nodes]
    if out and (min(out) < 0 or max(out) >= n_nodes):
        bad = next(v for v in out if not 0 <= v < n_nodes)
        raise GraphError(f"node {bad} outside 0..{n_nodes - 1}")
    return out


def many_source_lengths(
    network: Network,
    source_groups: Sequence[Sequence[int]],
    *,
    targets: Sequence[int] | None = None,
    radius: float = INF,
    workspace: DijkstraWorkspace | None = None,
) -> np.ndarray:
    """Batched shortest-path lengths: one Dijkstra per source group.

    Each group is one run (a group of several sources is a multi-source
    sweep).  With ``targets`` the result has shape
    ``(len(source_groups), len(targets))`` and each run exits early once
    all targets are settled; without, it has shape
    ``(len(source_groups), n_nodes)``.  All runs reuse one
    :class:`DijkstraWorkspace`, so per-run cost excludes allocation.
    Raises :class:`GraphError` for a target that is not a node, as the
    CH path does.
    """
    target_list = (
        None if targets is None else checked_nodes(network.n_nodes, targets)
    )
    if target_list is not None and workspace is None:
        # Function-local import: oracle imports this module through ch,
        # so an eager import here would be a cycle.  The hierarchy's
        # bucket block entries are bit-identical to the kernel loop below.
        from repro.network import oracle as _oracle

        hierarchy = _oracle.active_for(network)
        if hierarchy is not None:
            return hierarchy.distance_block(
                source_groups, target_list, radius=radius
            )
    ws = workspace if workspace is not None else workspace_for(network)
    n_groups = len(source_groups)
    if target_list is not None:
        target_set = set(target_list)
        out = np.empty((n_groups, len(target_list)), dtype=np.float64)
        for i, group in enumerate(source_groups):
            ws.run(group, targets=target_set, radius=radius)
            out[i, :] = ws.gather(target_list)
        return out
    out = np.full((n_groups, ws.n_nodes), INF, dtype=np.float64)
    for i, group in enumerate(source_groups):
        ws.run(group, radius=radius)
        touched = ws._touched
        if touched:
            dist = ws._dist
            out[i, touched] = [dist[t] for t in touched]
    return out
