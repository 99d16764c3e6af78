"""Resumable nearest-facility streams.

The Wide Matching Algorithm materializes edges of the bipartite graph
``G_b`` lazily: each customer owns a *paused* Dijkstra instance on the road
network that can be resumed to reveal the next-nearest candidate facility
on demand (Section IV-D of the paper: "the heaps for these executions per
customer persist across FindPair() calls").

Two classes implement this:

* :class:`NearestFacilityStream` -- one incremental Dijkstra per *node*.
  It records the facilities discovered so far in distance order and can be
  asked for the facility of any rank, resuming the search as needed.
* :class:`StreamCursor` -- a per-*customer* view over a stream.  Several
  customers may share a node (the paper's experiments place multiple
  customers per node); they share the underlying Dijkstra but keep
  independent positions.

Total work per stream across its lifetime is one full Dijkstra, no matter
how advances interleave -- the amortized guarantee the paper's complexity
analysis relies on.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable

from repro.errors import GraphError
from repro.network import oracle as _oracle
from repro.network.ch import CHFacilityStream
from repro.network.graph import Network
from repro.network.kernels import checked_nodes
from repro.obs import metrics
from repro.runtime.budget import checkpoint as _budget_checkpoint

INF = math.inf

_ADVANCE_COUNTERS = metrics.CounterBlock(
    "incremental.pops", "incremental.relaxations", "incremental.settled"
)


class NearestFacilityStream:
    """Incremental Dijkstra from one source node, filtered to facilities.

    Parameters
    ----------
    network:
        The road network.
    source:
        The node the stream searches from; :class:`GraphError` if it is
        not a node of ``network``.
    facility_nodes:
        Candidate facility node ids.  A node may host both a customer and
        a facility; the stream then reports it at distance zero.
        :class:`GraphError` if one is not a node of ``network``.  A
        ``frozenset`` is used as is, unchecked, so a pool checks and
        builds its candidate set once for all of its streams.
    """

    def __init__(
        self, network: Network, source: int, facility_nodes: Iterable[int]
    ) -> None:
        source = int(source)
        n = network.n_nodes
        if not 0 <= source < n:
            raise GraphError(f"node {source} outside 0..{n - 1}")
        self._source = source
        self._facility_set = (
            facility_nodes
            if isinstance(facility_nodes, frozenset)
            else frozenset(checked_nodes(n, facility_nodes))
        )
        # Plain-list CSR mirror: the resumable loop in _advance indexes
        # these arrays per edge, where numpy scalar boxing dominates.
        self._indptr, self._indices, self._weights = network.csr_lists
        self._dist: dict[int, float] = {self._source: 0.0}
        self._done: set[int] = set()
        self._heap: list[tuple[float, int]] = [(0.0, self._source)]
        self._found: list[tuple[int, float]] = []
        self._exhausted = False
        metrics.active().counter("incremental.streams").add()

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

        Ranks are zero-based.  The Dijkstra resumes as needed.  Returns
        ``None`` when fewer than ``rank + 1`` facilities are reachable.
        """
        # Over all calls, each edge is materialized at most once.
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

        The paused Dijkstra pops keys in non-decreasing order and only
        pushes keys at least as large as the one it popped, so the
        minimum key of its heap bounds every later settle, the next
        facility's included.  ``inf`` when the heap is empty: nothing
        further is reachable.  Never resumes the search.
        """
        heap = self._heap
        return heap[0][0] if heap else INF

    def resume_until(self, allowed: frozenset[int]) -> tuple[int, float] | None:
        """Resume until a facility in ``allowed`` is settled; return it.

        One pass of the paused Dijkstra: every candidate passed on the
        way is still appended to :attr:`found`, with one budget
        checkpoint each, so the stream's order stays shared with
        unfiltered cursors.  ``None`` once the stream is exhausted.
        """
        if self._exhausted:
            return None
        self._advance(allowed)
        return None if self._exhausted else self._found[-1]

    def _advance(self, allowed: frozenset[int] | None = None) -> None:
        """Resume Dijkstra until one more facility node is settled.

        With ``allowed``, candidates outside it are recorded and passed
        over until one inside it is settled.
        """
        # One checkpoint up front and one per candidate passed over (the
        # budget granularity convention); the per-edge loop below stays
        # call-free.
        _budget_checkpoint()
        heap = self._heap
        dist = self._dist
        done = self._done
        found = self._found
        facility_set = self._facility_set
        indptr, indices, weights = self._indptr, self._indices, self._weights
        heappush, heappop = heapq.heappush, heapq.heappop
        pops = 0
        relaxations = 0
        settled = 0

        try:
            while heap:
                d, u = heappop(heap)
                pops += 1
                if u in done:
                    continue
                done.add(u)
                settled += 1
                lo, hi = indptr[u], indptr[u + 1]
                for pos in range(lo, hi):
                    v = indices[pos]
                    nd = d + weights[pos]
                    if nd < dist.get(v, INF):
                        dist[v] = nd
                        relaxations += 1
                        heappush(heap, (nd, v))
                if u in facility_set:
                    found.append((u, d))
                    if allowed is None or u in allowed:
                        return
                    _budget_checkpoint()
            self._exhausted = True
        finally:
            c_pops, c_relax, c_settled = _ADVANCE_COUNTERS.get()
            c_pops.add(pops)
            c_relax.add(relaxations)
            c_settled.add(settled)


class StreamCursor:
    """A per-customer position into a (possibly shared) stream.

    The cursor's *rank* counts how many facilities this customer has
    consumed.  ``peek_distance`` is the ``nnDist`` value of Algorithm 2:
    the network distance of the next facility this customer could still be
    introduced to.
    """

    def __init__(
        self, stream: NearestFacilityStream | CHFacilityStream
    ) -> None:
        self._stream = stream
        self._rank = 0

    @property
    def rank(self) -> int:
        """Number of facilities consumed by this cursor."""
        return self._rank

    @property
    def source(self) -> int:
        """The node the underlying stream searches from."""
        return self._stream.source

    def peek(self) -> tuple[int, float] | None:
        """Next ``(facility_node, distance)`` without consuming it."""
        # Fast path: the facility was already revealed by an earlier
        # advance (the common case under Algorithm 2's repeated peeks).
        found = self._stream._found
        rank = self._rank
        if rank < len(found):
            return found[rank]
        return self._stream.facility_at(rank)

    def peek_in(self, allowed: frozenset[int]) -> tuple[int, float] | None:
        """Next facility in ``allowed``, consuming the ones before it.

        Facilities outside ``allowed`` only advance this cursor's rank,
        so a shared stream is unaffected.  Past the revealed prefix, one
        ``resume_until`` call passes every disallowed candidate.
        """
        found = self._stream._found
        rank = self._rank
        n = len(found)
        while rank < n and found[rank][0] not in allowed:
            rank += 1
        if rank < n:
            item: tuple[int, float] | None = found[rank]
        else:
            item = self._stream.resume_until(allowed)
            rank = len(found) - 1 if item is not None else len(found)
        self._rank = rank
        return item

    def peek_distance(self) -> float:
        """Distance of the next facility, or ``inf`` when exhausted."""
        found = self._stream._found
        rank = self._rank
        if rank < len(found):
            return found[rank][1]
        return self._stream.distance_at(rank)

    def peek_lower_bound(self) -> float:
        """A cheap lower bound on :meth:`peek_distance`, without advancing.

        Already-revealed facilities return their exact distance; at the
        stream frontier the underlying stream's ``frontier_lower_bound``
        answers (the paused heap's minimum key on every stream kind).
        Never triggers search work.
        """
        found = self._stream._found
        rank = self._rank
        if rank < len(found):
            return found[rank][1]
        return self._stream.frontier_lower_bound()

    def take(self) -> tuple[int, float] | None:
        """Consume and return the next ``(facility_node, distance)``."""
        item = self.peek()
        if item is not None:
            self._rank += 1
        return item

    def seek(self, rank: int) -> None:
        """Reposition the cursor to ``rank`` facilities consumed.

        Used by cache restores (:mod:`repro.serve.cache`): a snapshot
        records how far each customer's reveal frontier had advanced,
        and seeking re-establishes that frontier without re-running the
        stream -- the underlying Dijkstra resumes lazily only if a later
        peek needs a facility the stream has not yet settled.  The
        caller must guarantee the first ``rank`` facilities were truly
        consumed on an identical network (seeking past the frontier
        would silently skip reveals and corrupt the pruning bound).
        """
        if rank < 0:
            raise ValueError(f"cursor rank must be >= 0, got {rank}")
        self._rank = int(rank)

    @property
    def exhausted(self) -> bool:
        """True when no further facility is reachable for this cursor."""
        return self.peek() is None

    def drain(self, limit: int | None = None) -> list[tuple[int, float]]:
        """Consume up to ``limit`` facilities (all remaining if ``None``)."""
        out: list[tuple[int, float]] = []
        while limit is None or len(out) < limit:
            item = self.take()
            if item is None:
                break
            out.append(item)
        return out


class StreamPool:
    """Shared streams keyed by source node, with per-customer cursors.

    WMA touches customers unevenly -- covered customers stop exploring
    early -- so streams are created on first use.  Customers co-located on
    one node share the Dijkstra but advance independent cursors.

    When a contraction-hierarchy scope matching the network is active at
    construction (:func:`repro.network.oracle.active_for`), the pool
    builds :class:`~repro.network.ch.CHFacilityStream` streams instead;
    emitted ``(facility, distance)`` pairs are bit-identical either way.
    """

    def __init__(self, network: Network, facility_nodes: Iterable[int]) -> None:
        self._network = network
        self._facility_nodes = tuple(
            checked_nodes(network.n_nodes, facility_nodes)
        )
        # Built once and shared by every kernel stream of the pool.
        self._facility_set = frozenset(self._facility_nodes)
        self._streams: dict[int, NearestFacilityStream | CHFacilityStream] = {}
        self._hierarchy = _oracle.active_for(network)
        if self._hierarchy is not None:
            # CH streams replace the kernel streams wholesale, so
            # the incremental.* counters would vanish from reports (the
            # baseline gate treats a missing counter as a violation).
            # Materialize them at zero to keep the vocabulary stable.
            _ADVANCE_COUNTERS.get()
            metrics.active().counter("incremental.streams")

    def stream_for(self, node: int) -> NearestFacilityStream | CHFacilityStream:
        """Return (creating if needed) the shared stream rooted at ``node``."""
        stream = self._streams.get(node)
        if stream is None:
            if self._hierarchy is not None:
                stream = CHFacilityStream(
                    self._hierarchy, node, self._facility_nodes
                )
            else:
                stream = NearestFacilityStream(
                    self._network, node, self._facility_set
                )
            self._streams[node] = stream
        return stream

    def cursor_for(self, node: int) -> StreamCursor:
        """Create a fresh cursor over the stream rooted at ``node``."""
        return StreamCursor(self.stream_for(node))

    def __len__(self) -> int:
        return len(self._streams)

    @property
    def facility_nodes(self) -> tuple[int, ...]:
        """The candidate facility node ids this pool streams towards."""
        return self._facility_nodes
