"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

import numpy as np
import pytest

from repro.core.instance import MCFSInstance
from repro.flow.bipartite import _FilteredCursor
from repro.network.graph import Network
from repro.network.incremental import (
    NearestFacilityStream,
    StreamCursor,
    StreamPool,
)
from repro.network.oracle import FacilityStream


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
