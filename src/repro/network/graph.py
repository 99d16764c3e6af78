"""Compact weighted-graph representation used by all algorithms.

The paper's algorithms run Dijkstra instances over road networks with up to
millions of edges, so the graph is stored in CSR (compressed sparse row)
form: three flat ``numpy`` arrays giving, for each node, a contiguous slice
of neighbor ids and edge weights.  This keeps the inner Dijkstra loop free
of Python object overhead and makes the structure trivially serializable.

Graphs are undirected by default (each input edge is stored in both
directions); a directed mode is available because the problem statement in
the paper permits directed networks.
"""

# Construction-time module: Network building and its accessors run before
# any budget scope is active.
# reprolint: disable=REP101

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any, NoReturn

import numpy as np
import numpy.typing as npt

from repro.errors import GraphError

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a network, mirroring the paper's Table III."""

    n_nodes: int
    n_edges: int
    avg_degree: float
    max_degree: int
    avg_edge_length: float
    n_components: int

    def as_row(self) -> dict[str, float]:
        """Return the statistics as a flat dict suitable for table output."""
        return {
            "nodes": self.n_nodes,
            "edges": self.n_edges,
            "avg_degree": round(self.avg_degree, 2),
            "max_degree": self.max_degree,
            "avg_edge_length": round(self.avg_edge_length, 2),
            "components": self.n_components,
        }


def _raise_first_bad_edge(n: int, edge_list: Sequence[Edge]) -> NoReturn:
    """Raise :class:`GraphError` naming the first invalid edge of ``edge_list``."""
    for u, v, w in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(
                f"edge ({u}, {v}) references a node outside 0..{n - 1}"
            )
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")
        if not (w > 0) or not np.isfinite(w):
            raise GraphError(
                f"edge ({u}, {v}) has non-positive or non-finite weight {w}"
            )
    raise AssertionError("no invalid edge found")


class Network:
    """A weighted graph over dense integer node ids ``0..n-1``.

    Parameters
    ----------
    n_nodes:
        Number of nodes.
    edges:
        Iterable of ``(u, v, weight)`` triples.  Weights must be positive
        (the paper models road-segment lengths).  Parallel edges are
        allowed; self-loops are rejected because they can never lie on a
        shortest path and would corrupt degree statistics.
    coords:
        Optional ``(n_nodes, 2)`` array of planar coordinates.  Required by
        geometry-based components (Hilbert baseline, data generators) but
        not by the core algorithms, which are purely network-based.
    directed:
        When ``False`` (default) each edge is traversable in both
        directions.
    """

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[Edge],
        coords: npt.NDArray[np.float64] | None = None,
        directed: bool = False,
    ) -> None:
        if n_nodes < 0:
            raise GraphError(f"n_nodes must be non-negative, got {n_nodes}")
        self._n = int(n_nodes)
        self._directed = bool(directed)

        edge_list = [(int(u), int(v), float(w)) for u, v, w in edges]
        try:
            table = np.array(edge_list, dtype=np.float64).reshape(-1, 3)
        except OverflowError:  # a node id too large for a float
            _raise_first_bad_edge(self._n, edge_list)
        # Float comparisons are exact for every id below 2**53, and any
        # larger id is out of range either way.
        u, v, w = table.T
        bad = ~(
            (u >= 0) & (u < self._n) & (v >= 0) & (v < self._n) & (u != v)
            & (w > 0) & np.isfinite(w)
        )
        if bad.any():
            first = int(np.argmax(bad))
            _raise_first_bad_edge(self._n, edge_list[first:])
        self._edge_array = table[:, :2].astype(np.int64)
        self._edge_weights = table[:, 2].copy()

        self._indptr, self._indices, self._weights = self._build_csr(
            self._n, self._edge_array, self._edge_weights, self._directed
        )

        if coords is not None:
            coords = np.asarray(coords, dtype=np.float64)
            if coords.shape != (self._n, 2):
                raise GraphError(
                    f"coords must have shape ({self._n}, 2), got {coords.shape}"
                )
        self._coords = coords
        self._csr_lists: tuple[list[int], list[int], list[float]] | None = None
        self._fingerprint: str | None = None

    @staticmethod
    def _build_csr(
        n: int,
        edge_array: npt.NDArray[np.int64],
        edge_weights: npt.NDArray[np.float64],
        directed: bool,
    ) -> tuple[
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
        npt.NDArray[np.float64],
    ]:
        """Build CSR adjacency arrays from the validated edge arrays.

        A stable sort on the arc tails: each node's arcs keep input
        order, and on an undirected graph the arcs of edges listed as
        ``(node, x)`` come before those listed as ``(x, node)``.
        """
        tails, heads, weights = edge_array[:, 0], edge_array[:, 1], edge_weights
        if not directed:
            tails, heads = (
                np.concatenate((tails, heads)),
                np.concatenate((heads, tails)),
            )
            weights = np.concatenate((weights, weights))
        order = np.argsort(tails, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        return indptr, heads[order], weights[order]

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of input edges (undirected edges counted once)."""
        return len(self._edge_weights)

    @property
    def directed(self) -> bool:
        """Whether the graph is directed."""
        return self._directed

    @property
    def coords(self) -> npt.NDArray[np.float64]:
        """Planar coordinates, shape ``(n_nodes, 2)``.

        Raises
        ------
        GraphError
            If the network was built without coordinates.
        """
        if self._coords is None:
            raise GraphError("this network has no coordinates attached")
        return self._coords

    @property
    def has_coords(self) -> bool:
        """Whether planar coordinates are attached."""
        return self._coords is not None

    @property
    def csr(
        self,
    ) -> tuple[
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
        npt.NDArray[np.float64],
    ]:
        """The raw CSR arrays ``(indptr, indices, weights)``.

        Exposed for the hot Dijkstra loops; treat as read-only.
        """
        return self._indptr, self._indices, self._weights

    @property
    def csr_lists(self) -> tuple[list[int], list[int], list[float]]:
        """The CSR arrays as plain Python lists, built once and cached.

        Pure-Python shortest-path loops index these arrays millions of
        times; plain lists avoid the numpy scalar boxing that dominates
        the cost of ``indices[pos]``-style element access.  The lists
        trade one extra copy of the adjacency for roughly a 2x faster
        inner loop; treat as read-only.
        """
        if self._csr_lists is None:
            # Idempotent memo write: every builder produces the same value
            # from immutable CSR arrays, and materialize_caches() fills it
            # before any pool forks.
            self._csr_lists = (  # reprolint: disable=REP103 -- idempotent memo, materialized pre-fork
                self._indptr.tolist(),
                self._indices.tolist(),
                self._weights.tolist(),
            )
        return self._csr_lists

    @property
    def fingerprint(self) -> str:
        """A stable content hash of the graph structure.

        Covers node count, directedness, and the CSR arrays; two networks
        with identical adjacency share a fingerprint.  Keys the persisted
        oracle blobs and the serve solution cache.
        """
        if self._fingerprint is None:
            digest = hashlib.sha1()
            digest.update(f"{self._n}:{int(self._directed)}".encode())
            digest.update(self._indptr.tobytes())
            digest.update(self._indices.tobytes())
            digest.update(self._weights.tobytes())
            # Idempotent memo write over immutable arrays; filled by
            # materialize_caches() before any pool forks.
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def materialize_caches(self) -> None:
        """Force-fill the lazy memo fields (CSR list mirror, fingerprint).

        Call before handing this network to concurrent readers -- worker
        pools, shared caches -- so no read path performs a first-touch
        write on a shared instance (reprolint REP103).  Oracle tiers
        bound to a network follow the same pattern
        (:meth:`repro.network.ch.ContractionHierarchy.materialize_caches`);
        :class:`~repro.network.parallel.ParallelDistanceEngine` calls
        both before forking its pool.
        """
        _ = self.csr_lists
        _ = self.fingerprint

    def __getstate__(self) -> dict[str, Any]:
        # The list mirror of the CSR arrays is a pure cache; rebuilding it
        # on the other side is cheaper than pickling it.
        state = self.__dict__.copy()
        state["_csr_lists"] = None
        return state

    def neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        """Yield ``(neighbor, weight)`` pairs of ``node``."""
        self._check_node(node)
        lo, hi = self._indptr[node], self._indptr[node + 1]
        for pos in range(lo, hi):
            yield int(self._indices[pos]), float(self._weights[pos])

    def degree(self, node: int) -> int:
        """Out-degree of ``node`` (total degree for undirected graphs)."""
        self._check_node(node)
        return int(self._indptr[node + 1] - self._indptr[node])

    def edges(self) -> Iterator[Edge]:
        """Yield the input edges as ``(u, v, weight)`` triples."""
        for (u, v), w in zip(self._edge_array, self._edge_weights, strict=True):
            yield int(u), int(v), float(w)

    def edge_lengths(self) -> npt.NDArray[np.float64]:
        """Weights of the input edges as an array."""
        return self._edge_weights.copy()

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._n):
            raise GraphError(f"node {node} outside 0..{self._n - 1}")

    # ------------------------------------------------------------------
    # Statistics and conversions
    # ------------------------------------------------------------------
    def stats(self) -> GraphStats:
        """Compute Table-III-style summary statistics."""
        from repro.network.components import connected_components

        degrees = np.diff(self._indptr)
        avg_len = (
            float(self._edge_weights.mean()) if self.n_edges else 0.0
        )
        return GraphStats(
            n_nodes=self._n,
            n_edges=self.n_edges,
            avg_degree=float(degrees.mean()) if self._n else 0.0,
            max_degree=int(degrees.max()) if self._n else 0,
            avg_edge_length=avg_len,
            n_components=len(connected_components(self)),
        )

    def euclidean(self, u: int, v: int) -> float:
        """Euclidean distance between two nodes' coordinates."""
        c = self.coords
        return float(np.hypot(*(c[u] - c[v])))

    def to_networkx(self) -> Any:
        """Convert to a :mod:`networkx` graph (for testing and interop)."""
        import networkx as nx

        g = nx.DiGraph() if self._directed else nx.Graph()
        g.add_nodes_from(range(self._n))
        if self._coords is not None:
            for node in range(self._n):
                g.nodes[node]["pos"] = tuple(self._coords[node])
        for u, v, w in self.edges():
            g.add_edge(u, v, weight=w)
        return g

    @classmethod
    def from_networkx(cls, g: Any, weight: str = "weight") -> Network:
        """Build a :class:`Network` from a :mod:`networkx` graph.

        Node labels must be dense integers ``0..n-1``; relabel first with
        ``networkx.convert_node_labels_to_integers`` if they are not.
        """
        import networkx as nx

        n = g.number_of_nodes()
        labels = set(g.nodes)
        if labels != set(range(n)):
            raise GraphError(
                "node labels must be dense integers 0..n-1; "
                "use networkx.convert_node_labels_to_integers first"
            )
        edges = [
            (u, v, float(data.get(weight, 1.0))) for u, v, data in g.edges(data=True)
        ]
        coords = None
        if all("pos" in g.nodes[v] for v in g.nodes) and n > 0:
            coords = np.array([g.nodes[v]["pos"] for v in range(n)], dtype=float)
        return cls(n, edges, coords=coords, directed=isinstance(g, nx.DiGraph))

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return f"Network(n_nodes={self._n}, n_edges={self.n_edges}, {kind})"
