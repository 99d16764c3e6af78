"""The lazily materialized bipartite graph ``G_b``.

WMA never builds the complete customer-facility bipartite graph (it has
``m * l`` edges, each requiring a shortest-path computation).  Instead,
:class:`BipartiteState` holds:

* the edges materialized so far (per customer, facility -> true network
  distance), fed by per-customer :class:`~repro.network.incremental.StreamCursor`
  objects that reveal facilities in non-decreasing distance;
* the running assignment ``sigma`` (which customer-facility pairs carry
  flow) and per-facility load counts;
* Johnson node potentials for customers and facilities, maintained by the
  SSPA matcher so that all residual reduced costs stay non-negative.

Customer-side nodes are identified by customer index ``0..m-1`` and
facility-side nodes by facility index ``0..l-1`` (positions in the
instance's candidate list), never by raw network node ids.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import GraphError
from repro.network.ch import CHFacilityStream
from repro.network.graph import Network
from repro.network.incremental import (
    INF,
    NearestFacilityStream,
    StreamCursor,
    StreamPool,
)
from repro.obs import metrics
from repro.runtime.budget import checkpoint as _budget_checkpoint

_MATERIALIZE_COUNTERS = metrics.CounterBlock("incremental.edges_materialized")
_PEAK_EDGES_GAUGE = metrics.GaugeBlock("bipartite.peak_edges")


class _FilteredCursor(StreamCursor):
    """A stream cursor restricted to a subset of facility nodes.

    WMA's final phase assigns customers onto the *selected* facilities
    while reusing the exploration phase's stream pool (which streams
    towards the full candidate set).  This cursor skips facilities
    outside the subset; skipping only advances this customer's private
    rank, so shared streams are unaffected.  :meth:`peek_lower_bound`
    is inherited unfiltered: a disallowed facility at the frontier is no
    farther than the next allowed one, so it still bounds from below.
    """

    def __init__(
        self,
        stream: NearestFacilityStream | CHFacilityStream,
        allowed: frozenset[int],
    ) -> None:
        super().__init__(stream)
        self._allowed = allowed

    def peek(self) -> tuple[int, float] | None:
        return self.peek_in(self._allowed)

    def peek_distance(self) -> float:
        item = self.peek()
        return item[1] if item is not None else INF


class BipartiteState:
    """Mutable matching state between customers and candidate facilities.

    Parameters
    ----------
    network:
        The road network distances are measured on.
    customer_nodes:
        Node id per customer (duplicates allowed).
    facility_nodes:
        Node id per candidate facility (distinct).
    capacities:
        Capacity per candidate facility.
    pool:
        Optional shared :class:`StreamPool`.  WMA's recursive final
        assignment passes the pool of the main phase so network Dijkstra
        work is reused.
    """

    def __init__(
        self,
        network: Network,
        customer_nodes: Sequence[int],
        facility_nodes: Sequence[int],
        capacities: Sequence[int],
        pool: StreamPool | None = None,
    ) -> None:
        if len(facility_nodes) != len(capacities):
            raise GraphError("facility_nodes and capacities must align")
        self.network = network
        self.customer_nodes = [int(c) for c in customer_nodes]
        self.facility_nodes = [int(f) for f in facility_nodes]
        self.capacities = [int(c) for c in capacities]
        self.m = len(self.customer_nodes)
        self.l = len(self.facility_nodes)

        self._fac_index_of_node = {
            node: j for j, node in enumerate(self.facility_nodes)
        }
        if len(self._fac_index_of_node) != self.l:
            raise GraphError("facility nodes must be distinct")

        if pool is None:
            pool = StreamPool(network, self.facility_nodes)
        elif not set(self.facility_nodes) <= set(pool.facility_nodes):
            raise GraphError(
                "shared stream pool does not cover this state's facilities"
            )
        self.pool = pool
        # Streams may target a superset of this state's facilities when the
        # pool is shared; cursors filter down to the local candidate set.
        self._needs_filter = len(pool.facility_nodes) != self.l
        self._allowed_nodes = frozenset(self.facility_nodes)
        self._cursors: list[StreamCursor | None] = [None] * self.m

        # edges[i]: facility index -> true network distance.
        self.edges: list[dict[int, float]] = [{} for _ in range(self.m)]
        # matched[i]: facility indices currently assigned to customer i.
        self.matched: list[set[int]] = [set() for _ in range(self.m)]
        # assigned[j]: customer indices in sigma_j.
        self.assigned: list[set[int]] = [set() for _ in range(self.l)]
        # Johnson potentials (non-negative, maintained by the matcher).
        self.customer_potential = [0.0] * self.m
        self.facility_potential = [0.0] * self.l

        # Diagnostics the benchmarks report on.
        self.edges_materialized = 0
        self.dijkstra_runs = 0

    # ------------------------------------------------------------------
    # Cursors and edge materialization
    # ------------------------------------------------------------------
    def cursor(self, i: int) -> StreamCursor:
        """The nearest-facility cursor of customer ``i``."""
        cur = self._cursors[i]
        if cur is None:
            node = self.customer_nodes[i]
            if self._needs_filter:
                cur = _FilteredCursor(
                    self.pool.stream_for(node), self._allowed_nodes
                )
            else:
                cur = self.pool.cursor_for(node)
            self._cursors[i] = cur
        return cur

    def next_candidate_distance(self, i: int) -> float:
        """``nnDist`` of Algorithm 2: distance of the next unrevealed facility."""
        return self.cursor(i).peek_distance()

    def next_candidate_lower_bound(self, i: int) -> float:
        """A cheap lower bound on :meth:`next_candidate_distance`.

        Both stream kinds answer from a paused heap (the kernel
        Dijkstra's or the CH refine heap), so this never materializes an
        edge or advances a stream; see the SSPA stop in
        :mod:`repro.flow.sspa`.
        """
        return self.cursor(i).peek_lower_bound()

    def materialize_next(self, i: int) -> int | None:
        """Reveal customer ``i``'s next-nearest facility as a ``G_b`` edge.

        Returns the facility index, or ``None`` when no further facility
        is reachable from the customer's component.
        """
        item = self.cursor(i).take()
        if item is None:
            return None
        node, dist = item
        j = self._fac_index_of_node[node]
        self.edges[i][j] = dist
        self.edges_materialized += 1
        (c_edges,) = _MATERIALIZE_COUNTERS.get()
        c_edges.add()
        (g_peak,) = _PEAK_EDGES_GAUGE.get()
        g_peak.set_max(self.edges_materialized)
        return j

    def cursor_rank(self, i: int) -> int:
        """Stream position of customer ``i`` (0 when never advanced)."""
        cur = self._cursors[i]
        return 0 if cur is None else cur.rank

    def seek_cursor(self, i: int, rank: int) -> None:
        """Restore customer ``i``'s stream position (cache restores)."""
        self.cursor(i).seek(rank)

    # ------------------------------------------------------------------
    # Customer-row lifecycle (the serving layer's delta operations)
    # ------------------------------------------------------------------
    def append_customer(self, node: int) -> int:
        """Grow the customer side by one unmatched row; returns its index.

        The new row starts with no materialized edges, zero potential,
        and a lazily created cursor -- exactly the state a constructor
        row starts in, so a subsequent ``find_pair`` treats it like any
        other arrival.
        """
        row = self.m
        self.customer_nodes.append(int(node))
        self.edges.append({})
        self.matched.append(set())
        self.customer_potential.append(0.0)
        self._cursors.append(None)
        self.m += 1
        return row

    def pop_customer(self) -> None:
        """Undo :meth:`append_customer` for an unmatched trailing row."""
        if self.matched[-1]:
            raise GraphError("cannot pop a matched customer row")
        self.customer_nodes.pop()
        self.edges.pop()
        self.matched.pop()
        self.customer_potential.pop()
        self._cursors.pop()
        self.m -= 1

    def transplant_row(self, i: int, other: BipartiteState, other_row: int) -> None:
        """Adopt row ``other_row`` of ``other`` as this state's row ``i``.

        Carries over the materialized edges, the customer potential, the
        stream cursor (ranks and all), and the matching -- the scoped
        re-solve's way of keeping untouched components' state warm while
        only dirty components are rebuilt.  Both states must share the
        stream pool (hence the facility universe and the network);
        facility indices are then directly compatible.
        """
        if other.pool is not self.pool:
            raise GraphError(
                "transplant requires states sharing one stream pool"
            )
        if self.customer_nodes[i] != other.customer_nodes[other_row]:
            raise GraphError(
                f"transplant target row {i} hosts node "
                f"{self.customer_nodes[i]}, source row {other_row} hosts "
                f"{other.customer_nodes[other_row]}"
            )
        self.edges[i] = other.edges[other_row]
        self.customer_potential[i] = other.customer_potential[other_row]
        self._cursors[i] = other._cursors[other_row]
        for j in sorted(other.matched[other_row]):
            _budget_checkpoint()
            self.match(i, j)

    # ------------------------------------------------------------------
    # Assignment bookkeeping
    # ------------------------------------------------------------------
    def load(self, j: int) -> int:
        """Number of customers currently assigned to facility ``j``."""
        return len(self.assigned[j])

    def is_full(self, j: int) -> bool:
        """Whether facility ``j`` has reached its capacity."""
        return len(self.assigned[j]) >= self.capacities[j]

    def match(self, i: int, j: int) -> None:
        """Add flow on edge ``(i, j)`` (must be materialized, unmatched)."""
        if j not in self.edges[i]:
            raise GraphError(f"edge ({i}, {j}) is not materialized")
        if j in self.matched[i]:
            raise GraphError(f"edge ({i}, {j}) already carries flow")
        self.matched[i].add(j)
        self.assigned[j].add(i)

    def unmatch(self, i: int, j: int) -> None:
        """Remove flow on edge ``(i, j)`` (must be matched)."""
        if j not in self.matched[i]:
            raise GraphError(f"edge ({i}, {j}) carries no flow")
        self.matched[i].remove(j)
        self.assigned[j].remove(i)

    def assignment_count(self, i: int) -> int:
        """Number of facilities customer ``i`` is currently matched to."""
        return len(self.matched[i])

    def total_cost(self) -> float:
        """Sum of true distances over all matched edges."""
        return sum(
            self.edges[i][j] for i in range(self.m) for j in self.matched[i]
        )

    # Post-solve O(m) accessor over the finished matching.
    def matched_pairs(  # reprolint: disable=REP101
        self,
    ) -> Iterable[tuple[int, int, float]]:
        """Yield ``(customer, facility, distance)`` for matched edges."""
        for i in range(self.m):
            for j in self.matched[i]:
                yield i, j, self.edges[i][j]

    def coverage_sets(self) -> list[set[int]]:
        """``sigma_j`` per facility: the customers matched to it."""
        return [set(s) for s in self.assigned]

    def __repr__(self) -> str:
        flow = sum(len(s) for s in self.matched)
        return (
            f"BipartiteState(m={self.m}, l={self.l}, "
            f"edges={self.edges_materialized}, flow={flow})"
        )
