"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable, Sequence

import numpy as np
import pytest

from repro.core.instance import MCFSInstance
from repro.errors import GraphError
from repro.flow.bipartite import _FilteredCursor
from repro.network.dijkstra import DijkstraResult
from repro.network.graph import Network
from repro.network.incremental import (
    NearestFacilityStream,
    StreamCursor,
    StreamPool,
)
from repro.network.oracle import FacilityStream
from repro.obs import metrics


def build_line_network(n: int, spacing: float = 1.0) -> Network:
    """A path graph 0-1-2-...-(n-1) with unit-spacing coordinates."""
    coords = np.array([(i * spacing, 0.0) for i in range(n)])
    edges = [(i, i + 1, spacing) for i in range(n - 1)]
    return Network(n, edges, coords=coords)


def build_grid_network(rows: int, cols: int, spacing: float = 1.0) -> Network:
    """A rows x cols lattice with 4-neighborhood edges."""
    coords = np.array(
        [(c * spacing, r * spacing) for r in range(rows) for c in range(cols)]
    )
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1, spacing))
            if r + 1 < rows:
                edges.append((u, u + cols, spacing))
    return Network(rows * cols, edges, coords=coords)


def build_two_component_network() -> Network:
    """Two disjoint triangles: nodes 0-2 and 3-5."""
    coords = np.array(
        [(0, 0), (1, 0), (0, 1), (10, 10), (11, 10), (10, 11)], dtype=float
    )
    edges = [
        (0, 1, 1.0),
        (1, 2, math.sqrt(2)),
        (0, 2, 1.0),
        (3, 4, 1.0),
        (4, 5, math.sqrt(2)),
        (3, 5, 1.0),
    ]
    return Network(6, edges, coords=coords)


def build_random_network(
    n: int, seed: int = 0, avg_links: int = 3
) -> Network:
    """Random proximity network used by randomized tests.

    Each node links to its ``avg_links`` nearest neighbors; connected
    enough for meaningful shortest paths while staying irregular.
    """
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2))
    edges = set()
    for u in range(n):
        d2 = ((coords - coords[u]) ** 2).sum(axis=1)
        order = np.argsort(d2)
        for v in order[1 : avg_links + 1]:
            v = int(v)
            edges.add((min(u, v), max(u, v)))
    weighted = [
        (u, v, max(float(np.hypot(*(coords[u] - coords[v]))), 1e-9))
        for u, v in sorted(edges)
    ]
    return Network(n, weighted, coords=coords)


def build_random_instance(
    seed: int,
    *,
    n: int = 30,
    m: int = 6,
    l: int = 8,
    k: int = 3,
    cap_range: tuple[int, int] = (2, 5),
) -> MCFSInstance:
    """A random small instance for solver cross-checks."""
    network = build_random_network(n, seed=seed)
    rng = np.random.default_rng(seed + 10_000)
    customers = [int(v) for v in rng.choice(n, size=m, replace=True)]
    facilities = sorted(int(v) for v in rng.choice(n, size=l, replace=False))
    capacities = [int(c) for c in rng.integers(cap_range[0], cap_range[1], size=l)]
    return MCFSInstance(
        network=network,
        customers=tuple(customers),
        facility_nodes=tuple(facilities),
        capacities=tuple(capacities),
        k=k,
        name=f"random-{seed}",
    )


def reference_dijkstra(
    network: Network,
    sources: Sequence[int],
    *,
    targets: set[int] | None = None,
    radius: float = math.inf,
    max_settled: int | None = None,
) -> DijkstraResult:
    """Textbook per-call Dijkstra: the reference the workspace kernel must match.

    Fresh arrays every call, a binary heap with lazy deletion, and the
    kernel's options: ``targets`` stops once every target is settled (an
    empty set stops after the first settle), ``radius`` prunes past a
    distance bound, ``max_settled`` caps the settled count.  Flushes the
    same ``dijkstra.*`` counters as one kernel run.
    """
    indptr, indices, weights = network.csr_lists
    n = network.n_nodes
    dist = [math.inf] * n
    parent = [-1] * n
    done = [False] * n
    settled: list[int] = []
    heap: list[tuple[float, int]] = []
    for s in sources:
        s = int(s)
        if not (0 <= s < n):
            raise GraphError(f"source {s} outside 0..{n - 1}")
        if dist[s] > 0.0:
            dist[s] = 0.0
            heapq.heappush(heap, (0.0, s))
    remaining = len(targets) if targets is not None else -1
    pops = relaxations = 0
    while heap:
        d, u = heapq.heappop(heap)
        pops += 1
        if done[u]:
            continue
        done[u] = True
        settled.append(u)
        if remaining >= 0:
            if u in targets:
                remaining -= 1
            if remaining <= 0:
                break
        if max_settled is not None and len(settled) >= max_settled:
            break
        for pos in range(indptr[u], indptr[u + 1]):
            v = indices[pos]
            nd = d + weights[pos]
            if nd < dist[v] and nd <= radius:
                dist[v] = nd
                parent[v] = u
                relaxations += 1
                heapq.heappush(heap, (nd, v))
    reg = metrics.active()
    reg.counter("dijkstra.runs").add()
    reg.counter("dijkstra.pops").add(pops)
    reg.counter("dijkstra.relaxations").add(relaxations)
    reg.counter("dijkstra.settled").add(len(settled))
    return DijkstraResult(
        dist=np.asarray(dist, dtype=np.float64),
        parent=np.asarray(parent, dtype=np.int64),
        settled=settled,
    )


def frontier_bound_probe(
    stream: NearestFacilityStream | FacilityStream,
) -> tuple[Callable[[], float], Callable[[], tuple[int, float] | None]]:
    """``(bound, take)`` for a stream's own ``frontier_lower_bound``."""
    return stream.frontier_lower_bound, StreamCursor(stream).take


def filtered_bound_probe(
    pool: StreamPool, source: int, allowed: Iterable[int]
) -> tuple[Callable[[], float], Callable[[], tuple[int, float] | None]]:
    """``(bound, take)`` for a filtered cursor over ``pool``'s shared stream.

    An unfiltered cursor first reveals part of the stream, so the probe
    crosses both the revealed prefix and the paused frontier; ``take``
    then emits only ``allowed`` facilities.
    """
    pool.cursor_for(source).drain(3)
    cursor = _FilteredCursor(pool.stream_for(source), frozenset(allowed))
    return cursor.peek_lower_bound, cursor.take


def drain_checking_bound(
    bound: Callable[[], float],
    take: Callable[[], tuple[int, float] | None],
) -> int:
    """Take until exhausted; each ``bound()`` must not exceed the next emission.

    Returns the number of facilities emitted.
    """
    emitted = 0
    while True:
        lower = bound()
        item = take()
        if item is None:
            return emitted
        assert lower <= item[1]
        emitted += 1


@pytest.fixture
def line5() -> Network:
    """Path graph on 5 nodes."""
    return build_line_network(5)


@pytest.fixture
def grid4x4() -> Network:
    """4x4 lattice."""
    return build_grid_network(4, 4)


@pytest.fixture
def two_components() -> Network:
    """Two disjoint triangles."""
    return build_two_component_network()


@pytest.fixture
def random_network() -> Network:
    """A 40-node random proximity network."""
    return build_random_network(40, seed=1)
