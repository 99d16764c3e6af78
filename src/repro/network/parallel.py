"""Process-parallel shortest-path fan-out over shared-memory CSR arrays.

Single-source Dijkstra runs from distinct sources are independent, so a
distance matrix parallelizes embarrassingly across source chunks, and a
multi-source sweep parallelizes across connected components (sources in
one component can never reach another).  Pure-Python Dijkstra is
CPU-bound and GIL-bound, so the fan-out uses *processes*.

:class:`ParallelDistanceEngine` owns the pool: the network's CSR arrays
are copied once into :mod:`multiprocessing.shared_memory` blocks, each
worker attaches on start-up and builds one reusable
:class:`~repro.network.kernels.DijkstraWorkspace`, and tasks then ship
only source chunks -- never the graph.  Below a size threshold (or with
``workers <= 1``) every call falls back to the serial kernel, so small
calls never pay pool start-up.

Worker runs execute the same kernel as the serial path over the same
float64 CSR data, so parallel distances are bit-identical to serial
ones.  When a contraction-hierarchy oracle scope is active at pool
start-up (:func:`repro.network.oracle.active_for`), the hierarchy is
materialized pre-fork and shipped to every worker, whose distance
chunks then run the many-to-many bucket path of
:meth:`~repro.network.ch.ContractionHierarchy.distance_block` -- still
bit-identical.  Workers record their ``dijkstra.*`` counters into a private
registry that is shipped back and merged into the caller's active
registry, keeping observability totals independent of the worker count;
the engine additionally counts ``parallel.tasks`` and
``parallel.fallbacks``.

The worker count resolves as: explicit argument, else the
``REPRO_WORKERS`` environment variable, else 1 (serial).
"""

# Worker-process and pool-admin code: the cooperative budget is scoped to
# the parent process, whose fan-out loops checkpoint between chunks.
# reprolint: disable=REP101

from __future__ import annotations

import math
import multiprocessing
import os
from collections.abc import Sequence
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.errors import BudgetExceeded
from repro.network import ch as _chmod
from repro.network import oracle as _oracle
from repro.network.graph import Network
from repro.network.kernels import DijkstraWorkspace, checked_nodes, many_source_lengths
from repro.obs import metrics
from repro.runtime.budget import checkpoint as _budget_checkpoint

INF = math.inf

#: Minimum number of independent runs before a pool is worth starting.
MIN_PARALLEL_SOURCES = 4
#: Minimum total work (``n_nodes * n_runs``) before a pool is worth it.
MIN_PARALLEL_WORK = 200_000

WORKERS_ENV_VAR = "REPRO_WORKERS"

_ShmSpec = tuple[str, tuple[int, ...], str]  # (name, shape, dtype.str)


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a ``workers=`` argument to an effective worker count.

    ``None`` falls back to the ``REPRO_WORKERS`` environment variable
    (ignored when unset or malformed); the result is clamped to >= 1.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                workers = 1
        else:
            workers = 1
    return max(1, int(workers))


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
_worker_workspace: DijkstraWorkspace | None = None
_worker_ch: _chmod.ContractionHierarchy | None = None


def _attach_worker(
    specs: Sequence[_ShmSpec],
    n_nodes: int,
    untrack: bool,
    hierarchy: _chmod.ContractionHierarchy | None = None,
) -> None:
    """Pool initializer: attach the shared CSR blocks, build a workspace.

    The CSR data is converted to Python lists once (the kernel's fast
    representation); the shared blocks are then closed immediately, so
    each worker holds exactly one private copy of the adjacency.

    ``hierarchy`` ships the contraction hierarchy that was active in the
    parent at pool start-up (pre-materialized there, so fork-started
    workers inherit the CSR halves copy-on-write and never first-touch
    shared state); worker chunks then run the many-to-many bucket path
    instead of raw kernel Dijkstras.

    ``untrack`` handles the resource-tracker split: the parent owns the
    segments and unlinks them on engine close.  Spawn-started workers run
    a *private* tracker that would unlink (and leak-warn about) attached
    segments at worker exit, so they must unregister; fork-started
    workers *share* the parent's tracker, where unregistering would
    remove the parent's own entry.
    """
    global _worker_workspace, _worker_ch
    _worker_ch = hierarchy
    arrays = []
    blocks = []
    for name, shape, dtype in specs:
        shm = shared_memory.SharedMemory(name=name)
        blocks.append(shm)
        arrays.append(np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf))
    indptr, indices, weights = (arr.tolist() for arr in arrays)
    _worker_workspace = DijkstraWorkspace.from_csr(
        indptr, indices, weights, n_nodes
    )
    del arrays
    for shm in blocks:
        shm.close()
        if untrack:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except (KeyboardInterrupt, BudgetExceeded):
                raise
            except Exception:
                # Tracker API drift only; worker setup must not die on
                # an unregister refusal.
                pass


def _worker_distance_chunk(
    job: tuple[list[int], list[int], float],
) -> tuple[np.ndarray, dict[str, float]]:
    """Run one chunk: bucket sweeps under a shipped CH, else Dijkstras."""
    sources, targets, radius = job
    ws = _worker_workspace
    assert ws is not None, "worker used before initialization"
    registry = metrics.Registry()
    if _worker_ch is not None:
        with metrics.use(registry):
            rows = _worker_ch.distance_block(
                [[s] for s in sources], targets, radius=radius
            )
        return rows, registry.as_dict()
    target_set = set(targets)
    rows = np.empty((len(sources), len(targets)), dtype=np.float64)
    with metrics.use(registry):
        for i, s in enumerate(sources):
            ws.run([s], targets=target_set, radius=radius)
            rows[i, :] = ws.gather(targets)
    return rows, registry.as_dict()


def _worker_multi_source(
    job: tuple[list[int], float],
) -> tuple[list[int], list[float], list[int], list[int], dict[str, float]]:
    """Run one multi-source sweep (one connected component's sources)."""
    sources, radius = job
    ws = _worker_workspace
    assert ws is not None, "worker used before initialization"
    registry = metrics.Registry()
    with metrics.use(registry):
        ws.run(sources, radius=radius)
    touched = list(ws.touched())
    dist = [ws.dist_of(t) for t in touched]
    parent = [ws.parent_of(t) for t in touched]
    settled = list(ws.settled())
    return touched, dist, parent, settled, registry.as_dict()


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class ParallelDistanceEngine:
    """Fan independent Dijkstra runs of one network over a process pool.

    Parameters
    ----------
    network:
        The graph all runs share.
    workers:
        Worker-count request (see :func:`resolve_workers`).
    min_sources / min_work:
        Serial-fallback thresholds: a call parallelizes only when it has
        at least ``min_sources`` independent runs *and* at least
        ``min_work`` units of ``n_nodes * n_runs`` work.

    The pool and the shared-memory blocks are created lazily on the
    first call that actually parallelizes, and released by
    :meth:`close` (or the context-manager exit).
    """

    def __init__(
        self,
        network: Network,
        workers: int | None = None,
        *,
        min_sources: int = MIN_PARALLEL_SOURCES,
        min_work: int = MIN_PARALLEL_WORK,
    ) -> None:
        self.network = network
        self.workers = resolve_workers(workers)
        self.min_sources = int(min_sources)
        self.min_work = int(min_work)
        self._pool: Any = None
        self._shm_blocks: list[shared_memory.SharedMemory] = []

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> ParallelDistanceEngine:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # __del__ may run at interpreter shutdown: never raise
            pass

    def close(self) -> None:
        """Shut the pool down and release the shared-memory blocks."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        for shm in self._shm_blocks:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
        self._shm_blocks = []

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        # Fill the network's lazy memo fields before forking so workers
        # (and concurrent cache readers) never first-touch shared state.
        self.network.materialize_caches()
        # Ship the active contraction hierarchy (if any) to the workers,
        # pre-materialized for the same no-first-touch reason.  The pool
        # snapshots the oracle at start-up: a scope entered *after* the
        # first parallel call keeps workers on the kernel path, which is
        # bit-identical anyway.
        hierarchy = _oracle.active_for(self.network)
        if hierarchy is not None:
            hierarchy.materialize_caches()
        specs: list[_ShmSpec] = []
        for arr in self.network.csr:
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, arr.nbytes)
            )
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[:] = arr
            self._shm_blocks.append(shm)
            specs.append((shm.name, arr.shape, arr.dtype.str))
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
        ctx = multiprocessing.get_context(start_method)
        self._pool = ctx.Pool(
            self.workers,
            initializer=_attach_worker,
            initargs=(
                tuple(specs),
                self.network.n_nodes,
                start_method != "fork",
                hierarchy,
            ),
        )

    # -- scheduling ----------------------------------------------------
    def should_parallelize(self, n_runs: int) -> bool:
        """Whether ``n_runs`` independent runs justify using the pool."""
        return (
            self.workers > 1
            and n_runs >= self.min_sources
            and n_runs * self.network.n_nodes >= self.min_work
        )

    @staticmethod
    def _merge_counters(counters: dict[str, float]) -> None:
        reg = metrics.active()
        for name, value in counters.items():
            reg.counter(name).add(int(value))

    def _chunk(self, items: list[int]) -> list[list[int]]:
        # A few chunks per worker smooths out uneven per-source cost.
        n_chunks = min(len(items), self.workers * 4)
        bounds = np.linspace(0, len(items), n_chunks + 1).astype(int)
        return [
            items[lo:hi]
            for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
            if hi > lo
        ]

    # -- operations ----------------------------------------------------
    def distance_matrix(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        *,
        radius: float = INF,
    ) -> np.ndarray:
        """Early-exit distance matrix, source chunks fanned over the pool.

        Bit-identical to the serial kernel path; falls back to it below
        the thresholds.
        """
        _budget_checkpoint()
        source_list = [int(s) for s in sources]
        if not self.should_parallelize(len(source_list)):
            metrics.active().counter("parallel.fallbacks").add()
            return many_source_lengths(
                self.network,
                [[s] for s in source_list],
                targets=targets,
                radius=radius,
            )
        target_list = checked_nodes(self.network.n_nodes, targets)
        self._ensure_pool()
        chunks = self._chunk(source_list)
        jobs = [(chunk, target_list, radius) for chunk in chunks]
        metrics.active().counter("parallel.tasks").add(len(jobs))
        results = self._pool.map(_worker_distance_chunk, jobs)
        # Workers are budget-blind; check once per fan-out on return.
        _budget_checkpoint()
        for _, counters in results:
            self._merge_counters(counters)
        return np.vstack([rows for rows, _ in results])

    def multi_source_lengths(
        self, sources: Sequence[int], *, radius: float = INF
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Nearest-source sweep, fanned across connected components.

        Returns ``(dist, parent, settled)`` full-length arrays.  The
        settled order is concatenated per component (each component's
        sub-order is the serial settlement order); distances and parents
        are bit-identical to the serial kernel.
        """
        _budget_checkpoint()
        source_list = [int(s) for s in sources]
        n = self.network.n_nodes
        groups = self._component_groups(source_list)
        if len(groups) < 2 or not self.should_parallelize(len(source_list)):
            metrics.active().counter("parallel.fallbacks").add()
            return self._serial_multi_source(source_list, radius)
        self._ensure_pool()
        jobs = [(group, radius) for group in groups]
        metrics.active().counter("parallel.tasks").add(len(jobs))
        results = self._pool.map(_worker_multi_source, jobs)
        _budget_checkpoint()
        dist = np.full(n, INF)
        parent = np.full(n, -1, dtype=np.int64)
        settled: list[int] = []
        for touched, dvals, pvals, part_settled, counters in results:
            if touched:
                dist[touched] = dvals
                parent[touched] = pvals
            settled.extend(part_settled)
            self._merge_counters(counters)
        return dist, parent, settled

    def _serial_multi_source(
        self, source_list: list[int], radius: float
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        from repro.network.kernels import workspace_for

        ws = workspace_for(self.network)
        ws.run(source_list, radius=radius)
        return ws.dist_array(), ws.parent_array(), list(ws.settled())

    def _component_groups(self, source_list: list[int]) -> list[list[int]]:
        """Split sources by connected component (weak for directed)."""
        if not source_list:
            return []
        from repro.network.components import component_labels

        labels = component_labels(self.network)
        groups: dict[int, list[int]] = {}
        for s in source_list:
            groups.setdefault(int(labels[s]), []).append(s)
        return list(groups.values())
