"""Precomputed ALT distance oracle with fingerprint-keyed persistence.

The solvers re-run Dijkstra over one fixed road network thousands of
times; at the traffic levels the ROADMAP targets, repeated shortest-path
queries dominate the cost.  This module implements the classic ALT
preprocessing tier (A*, Landmarks, Triangle inequality): a handful of
landmark nodes are selected once per :class:`~repro.network.graph.Network`
(:mod:`repro.network.landmarks`), their full distance vectors are
precomputed on the shared :class:`~repro.network.kernels.DijkstraWorkspace`,
and the triangle inequality turns the vectors into

* :meth:`AltOracle.lower_bound` -- an ``O(landmarks)`` lower bound on
  any point-to-point distance, and
* :meth:`AltOracle.query` -- an exact goal-directed A* search using that
  bound as its heuristic (kept admissible under floating point by the
  :data:`_LB_SLACK` margin, so the returned distance is
  **bit-identical** to a Dijkstra run: the same edge-weight sums along
  an optimal path).

:class:`OracleFacilityStream` plugs the oracle in beneath the
incremental nearest-facility machinery: a lazy heap of lower-bound keys
is refined into exact distances on demand, so facilities still pop in
non-decreasing *exact* distance order -- a drop-in for
:class:`~repro.network.incremental.NearestFacilityStream` that replaces
one paused Dijkstra per customer with a few targeted A* queries.  The
heap minimum is also the stream's cheap lower bound for the Theorem-1
SSPA stop (see ``flow/sspa.py``), as the paused heap's minimum is on
the kernel path: since the cheap bound never exceeds the exact bound,
the stop it certifies is one the exact rule would make too, keeping
objectives bit-identical.

Built oracles persist to disk as ``.npz`` blobs keyed by
``Network.fingerprint`` plus the oracle parameters, with a versioned
header; a truncated, corrupt, or mismatched file silently falls back to
a rebuild (:func:`load_or_build`).  The active-scope pattern
(:func:`use` / :func:`active`) mirrors :mod:`repro.obs.metrics`; the
``oracle=`` solver option and the ``REPRO_ORACLE`` environment variable
(:func:`resolve`) install a scope around each solve.

ALT is one of two oracle *kinds* sharing this activation machinery: the
contraction-hierarchy tier
(:class:`~repro.network.ch.ContractionHierarchy`, ``REPRO_ORACLE=ch``)
answers the same point-to-point queries bidirectionally and adds a
many-to-many bucket primitive beneath whole ``distance_matrix`` blocks.
Both kinds satisfy the duck-typed oracle protocol consumed here and in
:mod:`repro.network.incremental`: ``matches`` / ``bind`` /
``query(u, v)`` / ``make_stream(source, facilities)`` / ``info()``,
with the kernel's distances.  Leave the oracle off for
solves: on both measured solve inputs WMA ran several times faster on
the kernel's paused Dijkstras than on either kind (``docs/api.md`` has
the table).  ``ch`` pays off on matrix-shaped work, where its buckets
amortize across targets; ``alt`` beat the kernel only on an
arrivals-only serve replay over a 5k-node grid.
"""

from __future__ import annotations

import heapq
import math
import os
import weakref
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import Any

import numpy as np

from repro.errors import BudgetExceeded, GraphError
from repro.network import ch as _ch
from repro.network.graph import Network
from repro.network.kernels import checked_nodes
from repro.network.landmarks import select_landmarks
from repro.obs import metrics
from repro.runtime.budget import checkpoint as _budget_checkpoint

INF = math.inf

#: On-disk blob format version; bump on any incompatible layout change.
ALT_FORMAT_VERSION = 1

#: Default landmark count; 8-32 is the classic sweet spot for road-like
#: graphs (diminishing bound quality above, weak bounds below).
DEFAULT_LANDMARKS = 16

#: Environment knob: ``alt``/``on``/``1``/``true`` enables the default
#: oracle for every solve; ``off``/``none``/``0``/``false``/empty
#: disables it.
ORACLE_ENV_VAR = "REPRO_ORACLE"

#: Environment knob: directory for persisted oracle blobs.  When unset,
#: default oracles are built in memory (still memoized per network).
ORACLE_DIR_ENV_VAR = "REPRO_ORACLE_DIR"

COUNTER_BUILDS = "oracle.builds"
COUNTER_CACHE_HITS = "oracle.cache_hits"
COUNTER_CACHE_MISSES = "oracle.cache_misses"
COUNTER_QUERIES = "oracle.queries"
COUNTER_QUERY_POPS = "oracle.query_pops"
COUNTER_QUERY_RELAXATIONS = "oracle.query_relaxations"
COUNTER_STREAMS = "oracle.streams"
#: SSPA stops certified by stream lower bounds, on every stream kind (the
#: kernel path too; bumped in flow/sspa.py).
COUNTER_PRUNES = "oracle.prunes"

_QUERY_COUNTERS = metrics.CounterBlock(
    COUNTER_QUERIES, COUNTER_QUERY_POPS, COUNTER_QUERY_RELAXATIONS
)

#: Absolute safety margin factor for :meth:`AltOracle.lower_bound`.
#: Stored landmark distances are floating-point path sums, so the raw
#: triangle-inequality difference can exceed the true distance by a few
#: ulps of the *landmark* distances (not of the difference itself).
#: Subtracting ``_LB_SLACK * (d(L,u) + d(L,v))`` per landmark restores a
#: strict lower bound for accumulated rounding of paths up to ~10^4
#: edges (error <= hops * 2^-53 ~ 1e-12 relative), which keeps the A*
#: heuristic admissible and every downstream ordering/pruning decision
#: bit-identical to the kernel path.
_LB_SLACK = 1e-12


class AltOracle:
    """Landmark distance vectors plus the query machinery built on them.

    Instances are built with :meth:`build` (or :func:`load_or_build`),
    never constructed directly.  An oracle is *bound* to the network it
    was built for; :meth:`bind` re-attaches a freshly loaded oracle to a
    live :class:`Network` after a fingerprint check.
    """

    def __init__(
        self,
        *,
        fingerprint: str,
        n_nodes: int,
        directed: bool,
        landmarks: list[int],
        vectors: np.ndarray,
        seed: int,
        network: Network | None = None,
        source_path: str | None = None,
    ) -> None:
        if vectors.shape != (len(landmarks), n_nodes):
            raise GraphError(
                f"landmark vectors have shape {vectors.shape}, expected "
                f"({len(landmarks)}, {n_nodes})"
            )
        self._fingerprint = fingerprint
        self._n_nodes = int(n_nodes)
        self._directed = bool(directed)
        self._landmarks = [int(x) for x in landmarks]
        self._vectors = vectors
        self._seed = int(seed)
        self._network = network
        self.source_path = source_path
        # Plain-list mirror of the vectors: the O(landmarks) bound loop
        # runs per A* relaxation, where numpy scalar boxing dominates.
        self._vec_lists: list[list[float]] = vectors.tolist()

    # ------------------------------------------------------------------
    # Construction and binding
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: Network,
        *,
        n_landmarks: int = DEFAULT_LANDMARKS,
        seed: int = 0,
    ) -> AltOracle:
        """Select landmarks on ``network`` and precompute their vectors.

        One seeding Dijkstra plus one per landmark, all on the shared
        kernel workspace (counted under ``dijkstra.runs``); the
        build itself bumps ``oracle.builds``.
        """
        landmarks, vectors = select_landmarks(network, n_landmarks, seed=seed)
        metrics.active().counter(COUNTER_BUILDS).add()
        return cls(
            fingerprint=network.fingerprint,
            n_nodes=network.n_nodes,
            directed=network.directed,
            landmarks=landmarks,
            vectors=vectors,
            seed=seed,
            network=network,
        )

    def bind(self, network: Network) -> AltOracle:
        """Attach a live network (required for :meth:`query`).

        Raises
        ------
        GraphError
            When ``network`` does not match the oracle's fingerprint.
        """
        if not self.matches(network):
            raise GraphError(
                f"oracle was built for fingerprint "
                f"{self._fingerprint[:12]}..., network has "
                f"{network.fingerprint[:12]}..."
            )
        self._network = network
        return self

    def matches(self, network: Network) -> bool:
        """Whether this oracle was built for exactly this adjacency."""
        return (
            self._n_nodes == network.n_nodes
            and self._fingerprint == network.fingerprint
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Fingerprint of the network the oracle was built for."""
        return self._fingerprint

    @property
    def n_landmarks(self) -> int:
        """Number of landmarks (distance vectors) held."""
        return len(self._landmarks)

    @property
    def landmarks(self) -> list[int]:
        """The landmark node ids, in selection order (a copy)."""
        return list(self._landmarks)

    def info(self) -> dict[str, Any]:
        """JSON-ready summary (the ``repro oracle info`` payload)."""
        return {
            "format_version": ALT_FORMAT_VERSION,
            "kind": "alt",
            "fingerprint": self._fingerprint,
            "n_nodes": self._n_nodes,
            "directed": self._directed,
            "n_landmarks": len(self._landmarks),
            "landmarks": list(self._landmarks),
            "seed": self._seed,
            "vector_bytes": int(self._vectors.nbytes),
            "source_path": self.source_path,
        }

    def __repr__(self) -> str:
        return (
            f"AltOracle(landmarks={len(self._landmarks)}, "
            f"n_nodes={self._n_nodes}, "
            f"fingerprint={self._fingerprint[:12]}...)"
        )

    # ------------------------------------------------------------------
    # Bounds and queries
    # ------------------------------------------------------------------
    # O(landmarks) scan, bounded by the small fixed landmark count; runs
    # per A* relaxation, far too hot for a per-call checkpoint.
    def lower_bound(  # reprolint: disable=REP101
        self, u: int, v: int
    ) -> float:
        """A lower bound on the network distance from ``u`` to ``v``.

        Triangle inequality over every landmark ``L``:
        ``|d(L,u) - d(L,v)|`` on undirected networks,
        ``max(d(L,v) - d(L,u), 0)`` on directed ones, each less the
        :data:`_LB_SLACK` rounding margin.  Returns ``inf`` exactly when
        the vectors *prove* ``v`` unreachable from ``u`` (one endpoint
        reached by a landmark, the other not -- a reachability argument,
        so no margin applies), and ``0.0`` when they carry no
        information.
        """
        best = 0.0
        slack = _LB_SLACK
        if self._directed:
            for vec in self._vec_lists:
                du = vec[u]
                dv = vec[v]
                if dv == INF:
                    if du != INF:
                        # L reaches u but not v: a u->v path would give
                        # L->v via u, so none exists.
                        return INF
                    continue
                if du == INF:
                    continue
                diff = (dv - du) - slack * (dv + du)
                if diff > best:
                    best = diff
            return best
        for vec in self._vec_lists:
            du = vec[u]
            dv = vec[v]
            if du == INF or dv == INF:
                if du != dv:
                    # Exactly one endpoint shares a component with L.
                    return INF
                continue
            diff = dv - du if dv >= du else du - dv
            diff -= slack * (dv + du)
            if diff > best:
                best = diff
        return best

    def query(self, source: int, target: int) -> float:
        """Exact point-to-point distance via landmark-guided A*.

        Bit-identical to a Dijkstra run between the same nodes: the
        heuristic is admissible, re-expansion is permitted, and the
        returned value is the same left-to-right sum of edge weights
        along an optimal path.  Returns ``inf`` when unreachable.
        """
        network = self._network
        if network is None:
            raise GraphError("oracle is not bound to a network; call bind()")
        _budget_checkpoint()
        s, t = int(source), int(target)
        n = self._n_nodes
        for node in (s, t):
            if not (0 <= node < n):
                raise GraphError(f"node {node} outside 0..{n - 1}")
        c_queries, c_pops, c_relax = _QUERY_COUNTERS.get()
        c_queries.add()
        if s == t:
            return 0.0
        h_source = self.lower_bound(s, t)
        if h_source == INF:
            return INF

        lb = self.lower_bound
        h_cache: dict[int, float] = {t: 0.0, s: h_source}
        indptr, indices, weights = network.csr_lists
        dist: dict[int, float] = {s: 0.0}
        heap: list[tuple[float, float, int]] = [(h_source, 0.0, s)]
        heappush, heappop = heapq.heappush, heapq.heappop
        pops = 0
        relaxations = 0

        try:
            while heap:
                _, g, u = heappop(heap)
                pops += 1
                if g > dist[u]:
                    continue
                if u == t:
                    return g
                lo, hi = indptr[u], indptr[u + 1]
                for pos in range(lo, hi):
                    v = indices[pos]
                    nd = g + weights[pos]
                    if nd < dist.get(v, INF):
                        hv = h_cache.get(v)
                        if hv is None:
                            hv = lb(v, t)
                            h_cache[v] = hv
                        if hv == INF:
                            # v provably cannot reach the target.
                            continue
                        dist[v] = nd
                        relaxations += 1
                        heappush(heap, (nd + hv, nd, v))
            return INF
        finally:
            c_pops.add(pops)
            c_relax.add(relaxations)

    def make_stream(
        self, source: int, facility_nodes: Iterable[int]
    ) -> OracleFacilityStream:
        """A nearest-facility stream rooted at ``source`` (pool protocol).

        Both oracle kinds expose this constructor so
        :class:`~repro.network.incremental.StreamPool` can stay agnostic
        about which one is active.
        """
        return OracleFacilityStream(self, source, facility_nodes)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Persist the oracle as a versioned ``.npz`` blob at ``path``.

        The write goes through a temporary file and an atomic rename, so
        a crash mid-write never leaves a truncated blob under the final
        name (:meth:`load` would reject it anyway).
        """
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}.npz"
        np.savez(
            tmp,
            version=np.int64(ALT_FORMAT_VERSION),
            fingerprint=np.str_(self._fingerprint),
            n_nodes=np.int64(self._n_nodes),
            directed=np.int64(self._directed),
            seed=np.int64(self._seed),
            landmarks=np.asarray(self._landmarks, dtype=np.int64),
            vectors=self._vectors,
        )
        os.replace(tmp, path)
        self.source_path = path
        return path

    @classmethod
    def load(cls, path: str, network: Network | None = None) -> AltOracle | None:
        """Load a persisted oracle, or ``None`` when the blob is unusable.

        *Any* blob failure -- missing file, truncation, corruption, a
        foreign format version, a fingerprint mismatch against
        ``network`` -- returns ``None`` so callers uniformly fall back
        to a rebuild.  ``BudgetExceeded`` and ``KeyboardInterrupt`` are
        *not* blob failures and always propagate: a deadline hit during
        deserialization must reach the fallback chain, not trigger a
        silent (and even slower) rebuild.
        """
        try:
            _budget_checkpoint()
            with np.load(path, allow_pickle=False) as blob:
                if int(blob["version"]) != ALT_FORMAT_VERSION:
                    return None
                fingerprint = str(blob["fingerprint"])
                n_nodes = int(blob["n_nodes"])
                directed = bool(int(blob["directed"]))
                seed = int(blob["seed"])
                landmarks = [int(x) for x in blob["landmarks"]]
                vectors = np.asarray(blob["vectors"], dtype=np.float64)
            oracle = cls(
                fingerprint=fingerprint,
                n_nodes=n_nodes,
                directed=directed,
                landmarks=landmarks,
                vectors=vectors,
                seed=seed,
                source_path=path,
            )
        except (KeyboardInterrupt, BudgetExceeded):
            raise
        except Exception:
            return None
        if network is not None:
            if not oracle.matches(network):
                return None
            oracle._network = network
        return oracle


def cache_path(
    directory: str,
    network: Network,
    *,
    n_landmarks: int = DEFAULT_LANDMARKS,
    seed: int = 0,
) -> str:
    """Canonical blob path for ``network`` + oracle params in ``directory``."""
    name = (
        f"alt-v{ALT_FORMAT_VERSION}-{network.fingerprint[:20]}"
        f"-L{int(n_landmarks)}-s{int(seed)}.npz"
    )
    return os.path.join(directory, name)


def load_or_build(
    network: Network,
    cache_dir: str | None = None,
    *,
    n_landmarks: int = DEFAULT_LANDMARKS,
    seed: int = 0,
) -> AltOracle:
    """Load the cached oracle for ``network``, rebuilding on any miss.

    With ``cache_dir`` the blob at :func:`cache_path` is tried first
    (``oracle.cache_hits``); a missing/corrupt/mismatched blob rebuilds
    and re-persists it (``oracle.cache_misses``).  Without a directory
    the oracle is always built in memory (also a miss).
    """
    if cache_dir:
        path = cache_path(
            cache_dir, network, n_landmarks=n_landmarks, seed=seed
        )
        oracle = AltOracle.load(path, network)
        if oracle is not None:
            metrics.active().counter(COUNTER_CACHE_HITS).add()
            return oracle
    metrics.active().counter(COUNTER_CACHE_MISSES).add()
    oracle = AltOracle.build(network, n_landmarks=n_landmarks, seed=seed)
    if cache_dir:
        oracle.save(
            cache_path(cache_dir, network, n_landmarks=n_landmarks, seed=seed)
        )
    return oracle


# ----------------------------------------------------------------------
# Oracle-backed nearest-facility stream
# ----------------------------------------------------------------------
class OracleFacilityStream:
    """Drop-in for :class:`~repro.network.incremental.NearestFacilityStream`.

    Instead of pausing a Dijkstra, the stream seeds a heap with one
    ``(lower_bound, facility)`` entry per candidate and lazily refines:
    popping a lower-bound entry runs one exact :meth:`AltOracle.query`
    and re-pushes the exact key; popping an exact entry emits it.  Every
    remaining key is a lower bound of its facility's exact distance, so
    an exact minimum is globally minimal -- facilities emit in
    non-decreasing exact distance, matching the kernel stream's order
    (ties resolve by node id in both).
    """

    def __init__(
        self, oracle: AltOracle, source: int, facility_nodes: Iterable[int]
    ) -> None:
        # One checkpoint per stream construction; the seeding loop below
        # is bounded by the candidate count and each step is O(landmarks).
        _budget_checkpoint()
        source = int(source)
        facilities = sorted({int(x) for x in facility_nodes})
        # The sorted candidates' ends bound them all: no O(l) scan per
        # stream on top of the sort.
        checked_nodes(
            oracle._n_nodes, [source, *facilities[:1], *facilities[-1:]]
        )
        self._oracle = oracle
        self._source = source
        self._found: list[tuple[int, float]] = []
        self._exhausted = False
        # Entries: (key, node, is_lower_bound).  Exact entries sort
        # before lower-bound ones on key ties, skipping a refine cycle.
        heap: list[tuple[float, int, int]] = []
        lb = oracle.lower_bound
        src = self._source
        for f in facilities:
            bound = lb(src, f)
            if bound != INF:
                heap.append((bound, f, 1))
        heap.sort()
        self._heap = heap
        if not heap:
            self._exhausted = True
        metrics.active().counter(COUNTER_STREAMS).add()

    @property
    def source(self) -> int:
        """The node this stream searches from."""
        return self._source

    @property
    def found(self) -> list[tuple[int, float]]:
        """Facilities discovered so far, in non-decreasing distance."""
        return self._found

    def facility_at(self, rank: int) -> tuple[int, float] | None:
        """Return the ``rank``-th nearest ``(facility_node, distance)``.

        Zero-based; refines lazily.  ``None`` when fewer than
        ``rank + 1`` facilities are reachable.
        """
        # Over all calls, each oracle candidate is advanced past at most once.
        while len(self._found) <= rank and not self._exhausted:
            self._advance()
        if rank < len(self._found):
            return self._found[rank]
        return None

    def distance_at(self, rank: int) -> float:
        """Distance of the ``rank``-th nearest facility (``inf`` if none)."""
        item = self.facility_at(rank)
        return item[1] if item is not None else INF

    def frontier_lower_bound(self) -> float:
        """Cheap lower bound on the next *unemitted* facility's distance.

        Every heap key bounds its own facility's exact distance from
        below, so the heap minimum bounds the next emission.  ``inf``
        when no facility remains.
        """
        heap = self._heap
        return heap[0][0] if heap else INF

    def resume_until(self, allowed: frozenset[int]) -> tuple[int, float] | None:
        """Refine until a facility in ``allowed`` is emitted; return it.

        Candidates passed on the way are still appended to :attr:`found`
        with one budget checkpoint each (see
        :meth:`~repro.network.incremental.NearestFacilityStream.resume_until`).
        ``None`` once the stream is exhausted.
        """
        if self._exhausted:
            return None
        self._advance(allowed)
        return None if self._exhausted else self._found[-1]

    def _advance(self, allowed: frozenset[int] | None = None) -> None:
        """Refine until one more facility (in ``allowed``, if given) is emitted."""
        _budget_checkpoint()
        heap = self._heap
        heappop, heapreplace = heapq.heappop, heapq.heapreplace
        query = self._oracle.query
        src = self._source
        while heap:
            key, node, is_lb = heap[0]
            if is_lb:
                # Query before the entry leaves the heap: a budget
                # expiring inside the query must not lose it.
                exact = query(src, node)
                if exact != INF:
                    heapreplace(heap, (exact, node, 0))
                else:
                    heappop(heap)
                continue
            heappop(heap)
            self._found.append((node, key))
            if allowed is None or node in allowed:
                return
            _budget_checkpoint()
        self._exhausted = True


# ----------------------------------------------------------------------
# Active-scope management (mirrors repro.obs.metrics)
# ----------------------------------------------------------------------
#: Either oracle kind; both satisfy the duck-typed protocol
#: (``matches``/``bind``/``query``/``make_stream``/``info``).
DistanceOracle = AltOracle | _ch.ContractionHierarchy

#: Facility streams the kinds hand to :class:`StreamPool` cursors.
FacilityStream = OracleFacilityStream | _ch.CHFacilityStream

#: Recognized oracle kinds, in CLI/env spelling.
ORACLE_KINDS = ("alt", "ch")

_active: DistanceOracle | None = None

#: Default oracles memoized per live network and kind (dropped with the
#: network).
_DEFAULT_ORACLES: weakref.WeakKeyDictionary[
    Network, dict[str, DistanceOracle]
] = weakref.WeakKeyDictionary()

_ALT_VALUES = frozenset({"alt", "on", "1", "true"})
_CH_VALUES = frozenset({"ch"})
_DISABLE_VALUES = frozenset({"", "0", "off", "none", "false"})


def active() -> DistanceOracle | None:
    """The oracle installed by the innermost :func:`use` scope, if any."""
    return _active


def active_for(network: Network) -> DistanceOracle | None:
    """The active oracle (either kind), but only when it matches ``network``.

    Stream pools consult this at construction: an oracle built for a
    different adjacency must never serve bounds for this one.
    """
    oracle = _active
    if oracle is not None and oracle.matches(network):
        return oracle.bind(network)
    return None


def active_ch_for(network: Network) -> _ch.ContractionHierarchy | None:
    """The active oracle when it is a hierarchy matching ``network``.

    The kernel matrix hook consults this: only the CH kind carries the
    many-to-many bucket primitive, so an active ALT oracle (or a
    mismatched hierarchy) leaves ``many_source_lengths`` on the kernel
    path.
    """
    oracle = _active
    if isinstance(oracle, _ch.ContractionHierarchy) and oracle.matches(
        network
    ):
        return oracle.bind(network)
    return None


@contextmanager
def use(oracle: DistanceOracle) -> Iterator[DistanceOracle]:
    """Make ``oracle`` the active distance oracle within the block.

    Scopes nest; the previous oracle is restored on exit.  Entering a
    scope primes the ``oracle.*`` and ``ch.*`` counters in the active
    metrics registry so reports carry the vocabulary even for all-zero
    runs.
    """
    global _active
    previous = _active
    _active = oracle
    prime_counters(metrics.active())
    try:
        yield oracle
    finally:
        _active = previous


def prime_counters(registry: metrics.Registry) -> None:
    """Materialize every oracle-tier counter in ``registry`` at zero.

    The CI counter gate treats a baselined counter missing from a report
    as a violation, so kernel-path profiles must still export the oracle
    vocabulary (as zeros) -- including the ``ch.*`` names, which only the
    hierarchy kind ever bumps.
    """
    registry.counter(COUNTER_BUILDS)
    registry.counter(COUNTER_CACHE_HITS)
    registry.counter(COUNTER_CACHE_MISSES)
    registry.counter(COUNTER_QUERIES)
    registry.counter(COUNTER_QUERY_POPS)
    registry.counter(COUNTER_QUERY_RELAXATIONS)
    registry.counter(COUNTER_STREAMS)
    registry.counter(COUNTER_PRUNES)
    registry.counter("ch.shortcuts")
    registry.counter("ch.upward_settles")
    registry.counter("ch.bucket_scans")
    registry.counter("ch.matrix_blocks")


def default_oracle(network: Network, kind: str = "alt") -> DistanceOracle:
    """The memoized default-parameter oracle of ``network`` for ``kind``.

    Honors :data:`ORACLE_DIR_ENV_VAR` for persistence; without it the
    oracle lives only as long as the network object does.  Each kind is
    built and memoized independently.
    """
    per_kind = _DEFAULT_ORACLES.get(network)
    if per_kind is None:
        per_kind = {}
        _DEFAULT_ORACLES[network] = per_kind
    oracle = per_kind.get(kind)
    if oracle is None:
        cache_dir = os.environ.get(ORACLE_DIR_ENV_VAR) or None
        if kind == "ch":
            oracle = _ch.load_or_build(network, cache_dir)
        elif kind == "alt":
            oracle = load_or_build(network, cache_dir)
        else:
            raise GraphError(
                f"unknown oracle kind {kind!r}; expected one of "
                f"{', '.join(ORACLE_KINDS)}"
            )
        per_kind[kind] = oracle
    return oracle


def resolve(value: Any, network: Network | None) -> DistanceOracle | None:
    """Map an ``oracle=`` option value onto an oracle instance (or None).

    ``None`` consults :data:`ORACLE_ENV_VAR`; ``False``/``"off"``-style
    values disable; ``True``/``"alt"``-style values enable the default
    ALT oracle for ``network`` and ``"ch"`` the default contraction
    hierarchy; an :class:`AltOracle` or
    :class:`~repro.network.ch.ContractionHierarchy` is used as-is after
    a fingerprint check.  Unrecognized values raise :class:`GraphError`.
    """
    if value is None:
        value = os.environ.get(ORACLE_ENV_VAR, "")
    if value is False:
        return None
    if isinstance(value, (AltOracle, _ch.ContractionHierarchy)):
        if network is not None:
            return value.bind(network)
        return value
    if value is True:
        value = "alt"
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in _DISABLE_VALUES:
            return None
        if lowered in _ALT_VALUES:
            if network is None:
                return None
            return default_oracle(network, "alt")
        if lowered in _CH_VALUES:
            if network is None:
                return None
            return default_oracle(network, "ch")
    raise GraphError(
        f"unrecognized oracle setting {value!r}; expected an AltOracle, "
        f"a ContractionHierarchy, True/False, 'alt', 'ch', or 'off'"
    )
