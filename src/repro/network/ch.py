"""Contraction-hierarchy distance oracle with many-to-many bucket sweeps.

The all-pairs-style ``distance_matrix`` / ``many_source_lengths``
sweeps are the dominant cost of the exact and local-search solvers.
This module implements the preprocessing tier that answers them without
kernel Dijkstras: contraction hierarchies (Geisberger et al.), where
every node is assigned a rank and *shortcut* arcs preserve
shortest-path distances among higher-ranked nodes.

Preprocessing (:meth:`ContractionHierarchy.build`):

* **edge-difference ordering** -- nodes are contracted in priority order
  ``(#shortcuts needed) - (degree) + (#contracted neighbors)``, drawn
  from a lazy-update priority queue: a popped node's priority is
  recomputed and the pop retried when it no longer beats the queue head,
  so stale entries never force contraction out of order;
* **witness searches** -- before contracting ``v``, a capped Dijkstra
  from each in-neighbor ``u`` (excluding ``v``) looks for a *witness*
  path no longer than ``u -> v -> w``; the shortcut is inserted unless a
  witness is strictly shorter by the :data:`_WITNESS_SLACK` relative
  margin.  The cap only ever *adds* shortcuts (a missed witness is
  harmless), and the margin keeps every floating-point-tied path
  representable in the hierarchy -- the cornerstone of bit-identity;
* **upward/downward CSR halves** -- the surviving arcs split by rank:
  forward searches relax only rank-increasing arcs, backward searches
  only rank-decreasing ones (stored reversed), so every search space is
  a small cone instead of the whole graph.

Queries: :meth:`ContractionHierarchy.query` runs the bidirectional
upward sweep; :meth:`ContractionHierarchy.distance_block` is the
many-to-many bucket algorithm (Knopp et al.): one backward cone per
*target* deposits ``(target, dist)`` entries into per-node buckets, then
one forward sweep per *source group* scans the buckets of the nodes it
settles -- a whole distance-matrix block without a single kernel
Dijkstra.  :class:`CHFacilityStream` runs the same bucket scan from a
*paused* forward sweep, the way the kernel streams pause their
Dijkstra: it settles only until the next facility in distance order is
certified (the CH stopping rule, per facility), so a stream asked for
its nearest facility touches a fraction of the upward search space.

Distances match the kernel path bit for bit.  The kernel returns the
minimum over all paths of the *left-to-right* IEEE float sum of edge
weights (float addition of non-negative terms is monotone).  Shortcut
weights are differently-associated sums, so CH g-values are only used
for *search*; the returned value re-folds the winning path's original
edge weights left-to-right (shortcuts unpack via their middle node,
:meth:`ContractionHierarchy._flat_arc`).  Near-ties between meeting
nodes are handled by re-folding every meeting candidate within the
:data:`_TIE_EPS` relative band of the best CH value and returning the
minimum.  Two paths of equal real length can still hide behind one
candidate, and their left-to-right sums may differ only in float
association (``query(7, 4)`` on a network pinned in
``tests/test_ch.py``: 1.1 along one path, 1.0999999999999999 along the
other).  Each search tree keeps one parent per node, and each arc one
decomposition, so such a path is flagged instead: a node that a second
relaxation reaches within the band lands in its sweep's ``ties``, and a
record that ties an arc within the band is kept as an alternative
(``alt_*`` arrays), tainting every arc that unpacks through it.  A
candidate whose up or down path meets a flag is answered by one kernel
Dijkstra over the original edges, bounded by the re-folded value
(:meth:`ContractionHierarchy._exact_lengths`, counted under
``ch.tie_fallbacks``).  Networks whose paths never tie, such as the
jittered city grids, never take it.

Hierarchies persist as fingerprint-keyed versioned ``.npz`` blobs
(:func:`cache_path` / :func:`load_or_build`), with atomic writes and a
silent rebuild on any load failure.  Activation goes through the oracle
scope (``REPRO_ORACLE=ch``, ``oracle="ch"`` solver option); see
:func:`repro.network.oracle.resolve`.
"""

from __future__ import annotations

import heapq
import math
import os
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.errors import BudgetExceeded, GraphError
from repro.network.graph import Network
from repro.network.kernels import DijkstraWorkspace
from repro.obs import metrics
from repro.runtime.budget import checkpoint as _budget_checkpoint

INF = math.inf

#: On-disk blob format version; bump on any incompatible layout change.
#: Version 2 added the tied alternative records (``alt_*`` arrays).
CH_FORMAT_VERSION = 2

COUNTER_SHORTCUTS = "ch.shortcuts"
COUNTER_UPWARD_SETTLES = "ch.upward_settles"
COUNTER_BUCKET_SCANS = "ch.bucket_scans"
COUNTER_MATRIX_BLOCKS = "ch.matrix_blocks"
COUNTER_TIE_FALLBACKS = "ch.tie_fallbacks"

#: Relative margin for witness-search shortcut omission.  A shortcut is
#: skipped only when a witness path is shorter by more than this
#: fraction of the shortcut weight.  Witness and shortcut lengths are
#: both float path sums whose association differs from the kernel's, so
#: an exact comparison could drop a shortcut that a floating-point-tied
#: shortest path needs; the margin (orders of magnitude above the
#: ~1e-12 relative accumulation error of bounded searches) guarantees
#: tied paths always stay representable.  Extra shortcuts are always
#: safe -- they cost a few arcs, never correctness.
_WITNESS_SLACK = 1e-9

#: Relative near-tie band for meeting-node candidates.  The true kernel
#: answer is the minimum left-to-right sum over all paths; any path
#: whose differently-associated CH sum is within this band of the best
#: could hold that minimum, so every such candidate is re-folded and the
#: smallest re-folded value returned.  Distinct path lengths of the
#: instance generators differ by far more than this, so the band almost
#: always holds exactly one candidate.
_TIE_EPS = 1e-9

#: A paused :class:`CHFacilityStream` pops a refine entry only while its
#: key is below ``sweep_min * _FLOOR_FACTOR``.  A facility whose bound
#: entry is still to come ends with ``best >= sweep_min / (1 + eps)``
#: (its threshold ``best * (1 + eps)`` has not been passed, or its best
#: candidate is yet to be settled), so its key ``best * (1 - eps)`` is at
#: least ``sweep_min * (1 - eps) / (1 + eps)``.  The ``1 - 1e-15`` factor
#: rounds that floor down past the few ulps its float products can lose.
_FLOOR_FACTOR = (1.0 - _TIE_EPS) / (1.0 + _TIE_EPS) * (1.0 - 1e-15)

#: Settled-node cap per witness search.  Caps only trade shortcuts for
#: build speed: an unfinished witness search simply fails to certify an
#: omission, so the shortcut is inserted and correctness is untouched.
_WITNESS_CAP = 30

_SWEEP_COUNTERS = metrics.CounterBlock(
    COUNTER_UPWARD_SETTLES, COUNTER_BUCKET_SCANS
)


# ----------------------------------------------------------------------
# Preprocessing: edge-difference ordering + witness-searched contraction
# ----------------------------------------------------------------------
class _Contractor:
    """One-shot contraction state machine over a dynamic arc graph.

    Owns the mutable adjacency of the *remaining* (uncontracted) graph
    plus the append-only master arc map that the finished hierarchy
    keeps.  Master records ``(u, v) -> (weight, mid)`` are overwritten
    only by strictly smaller weights, and shortcuts are only ever
    created between two still-uncontracted endpoints -- so once ``mid``
    is contracted its constituent records ``(u, mid)`` / ``(mid, v)``
    are frozen, and end-state lookups reproduce every shortcut's
    creation-time decomposition exactly (what :meth:`unpacking
    <ContractionHierarchy._flat_arc>` relies on).  A record that ties
    the master one within :data:`_TIE_EPS` is kept in ``alts``: one arc
    then stands for paths whose left-to-right sums may differ.
    """

    def __init__(
        self,
        indptr: list[int],
        indices: list[int],
        weights: list[float],
        n: int,
        *,
        symmetric: bool = False,
    ) -> None:
        # One checkpoint per construction (budget granularity: the CSR
        # scan below is a single heavy operation).
        _budget_checkpoint()
        self.n = n
        # Master arc map; mid == -1 marks an original edge.  Parallel
        # input arcs collapse to their minimum weight, matching the
        # relaxation the kernel's Dijkstra would pick.
        arcs: dict[tuple[int, int], tuple[float, int]] = {}
        for u in range(n):
            for pos in range(indptr[u], indptr[u + 1]):
                v = indices[pos]
                if v == u:
                    continue
                w = weights[pos]
                cur = arcs.get((u, v))
                if cur is None or w < cur[0]:
                    arcs[(u, v)] = (w, -1)
        self.arcs = arcs
        #: Records that tied ``arcs[(u, v)]`` within the band when they
        #: met it: each still holds a path the master record may not.
        self.alts: dict[tuple[int, int], list[tuple[float, int]]] = {}
        # Undirected networks store every edge in both directions with
        # the same weight; contraction preserves the mirror invariant
        # (shortcut pairs get the same commutative sum), so each
        # unordered pair needs only one witness decision.
        self.symmetric = symmetric
        self.out_adj: list[dict[int, float]] = [{} for _ in range(n)]
        self.in_adj: list[dict[int, float]] = [{} for _ in range(n)]
        for (u, v), (w, _mid) in arcs.items():
            self.out_adj[u][v] = w
            self.in_adj[v][u] = w
        self.rank = [-1] * n
        self.deleted = [0] * n
        # Bumped for every node whose neighborhood a contraction edits;
        # lets the ordering loop reuse a requeued node's witness results
        # when nothing around it changed in the meantime.
        self.version = [0] * n

    def _unwitnessed(
        self, source: int, excluded: int, pairs: list[tuple[int, float]]
    ) -> list[tuple[int, float]]:
        """Shortcut targets of ``source`` that no witness path rules out.

        Runs one capped Dijkstra from ``source`` skipping ``excluded``,
        terminating as soon as every candidate ``(w, u->v->w weight)``
        pair is decided: a target settled below its shortcut weight by
        the :data:`_WITNESS_SLACK` margin is witnessed (no shortcut),
        one settled at or above it is refuted.  Targets still open when
        the cap or distance bound exhausts keep their shortcuts -- caps
        only ever add safe extra arcs.
        """
        # One checkpoint per witness search; the capped per-edge loop
        # below stays call-free.
        _budget_checkpoint()
        out_adj = self.out_adj
        open_pairs = dict(pairs)
        limit = max(open_pairs.values())
        needed: list[tuple[int, float]] = []
        dist = {source: 0.0}
        dist_get = dist.get
        heap = [(0.0, source)]
        heappush, heappop = heapq.heappush, heapq.heappop
        budget = _WITNESS_CAP
        while heap and budget > 0:
            d, x = heappop(heap)
            # Stale-entry test: relaxations only push strictly improved
            # labels, so a pop matching its label is the settle.
            if d > dist[x]:
                continue
            if d > limit:
                break
            budget -= 1
            sc = open_pairs.pop(x, None)
            if sc is not None:
                if d > sc - _WITNESS_SLACK * sc:
                    needed.append((x, sc))
                if not open_pairs:
                    break
                if sc >= limit:
                    # The farthest target resolved; the search radius
                    # shrinks to the farthest still-open shortcut.
                    limit = max(open_pairs.values())
            for y, w in out_adj[x].items():
                if y == excluded:
                    continue
                nd = d + w
                if nd <= limit and nd < dist_get(y, INF):
                    dist[y] = nd
                    heappush(heap, (nd, y))
        # Targets the cap or bound left unsettled: a *tentative* label is
        # still an upper bound on the true detour, so a label already
        # below the margin certifies the witness; anything else keeps
        # its shortcut.
        for w, sc in open_pairs.items():
            if dist_get(w, INF) > sc - _WITNESS_SLACK * sc:
                needed.append((w, sc))
        needed.sort()
        return needed

    def simulate(self, v: int) -> tuple[list[tuple[int, int, float]], int]:
        """Witness-search the contraction of ``v`` without performing it.

        Returns ``(shortcuts, edge_difference)`` where each shortcut is
        ``(u, w, weight)``.  Doubles as the priority evaluation *and*
        the contraction's shortcut computation, so a successful lazy-pop
        never repeats the witness work.
        """
        _budget_checkpoint()
        ins = self.in_adj[v]
        outs = self.out_adj[v]
        shortcuts: list[tuple[int, int, float]] = []
        if ins and outs:
            out_items = sorted(outs.items())
            if self.symmetric:
                # One witness decision per unordered pair: the reverse
                # detour has the same real length (margins absorb the
                # reversed association), and the reverse shortcut the
                # same commutative weight.
                for u, w1 in out_items:
                    pairs = [(w, w1 + w2) for w, w2 in out_items if w > u]
                    if not pairs:
                        continue
                    for w, sc in self._unwitnessed(u, v, pairs):
                        shortcuts.append((u, w, sc))
                        shortcuts.append((w, u, sc))
            else:
                for u, w1 in sorted(ins.items()):
                    pairs = [(w, w1 + w2) for w, w2 in out_items if w != u]
                    if not pairs:
                        continue
                    for w, sc in self._unwitnessed(u, v, pairs):
                        shortcuts.append((u, w, sc))
        return shortcuts, len(shortcuts) - (len(ins) + len(outs))

    def contract(self, v: int, shortcuts: list[tuple[int, int, float]]) -> None:
        """Remove ``v`` from the remaining graph, inserting ``shortcuts``."""
        _budget_checkpoint()
        arcs = self.arcs
        alts = self.alts
        out_adj = self.out_adj
        in_adj = self.in_adj
        for u, w, sc in shortcuts:
            rec = arcs.get((u, w))
            if rec is None:
                arcs[(u, w)] = (sc, v)
            elif sc < rec[0]:
                if sc < rec[0] * (1.0 - _TIE_EPS):
                    # Everything the arc held is now beyond the band.
                    alts.pop((u, w), None)
                else:
                    alts.setdefault((u, w), []).append(rec)
                arcs[(u, w)] = (sc, v)
            elif sc <= rec[0] * (1.0 + _TIE_EPS):
                alts.setdefault((u, w), []).append((sc, v))
            cur = out_adj[u].get(w)
            if cur is None or sc < cur:
                out_adj[u][w] = sc
                in_adj[w][u] = sc
        deleted = self.deleted
        version = self.version
        for u, w, _sc in shortcuts:
            version[u] += 1
            version[w] += 1
        for u in in_adj[v]:
            del out_adj[u][v]
            deleted[u] += 1
            version[u] += 1
        for w in out_adj[v]:
            del in_adj[w][v]
            deleted[w] += 1
            version[w] += 1
        in_adj[v] = {}
        out_adj[v] = {}

    def run(self) -> None:
        """Contract every node in lazy-updated edge-difference order."""
        simulate = self.simulate
        rank = self.rank
        deleted = self.deleted
        version = self.version
        # Witness results keyed by neighborhood version.  Reuse is
        # sound: an unchanged version means the node's arcs are
        # identical, omissions stay valid because contraction preserves
        # remaining-graph distances exactly, and stale insertions could
        # only add safe extra shortcuts.
        memo: dict[int, tuple[int, list[tuple[int, int, float]], int]] = {}
        pq: list[tuple[int, int]] = []
        for v in range(self.n):
            # One checkpoint per priority evaluation: the witness
            # searches inside are the contraction loop's unit of work
            # for cooperative budgets (reprolint REP101).
            _budget_checkpoint()
            shortcuts, diff = simulate(v)
            memo[v] = (version[v], shortcuts, diff)
            pq.append((diff, v))
        heapq.heapify(pq)
        heappush, heappop = heapq.heappush, heapq.heappop
        order = 0
        while pq:
            _budget_checkpoint()
            _, v = heappop(pq)
            if rank[v] >= 0:
                continue
            cached = memo.get(v)
            if cached is not None and cached[0] == version[v]:
                _, shortcuts, diff = cached
            else:
                shortcuts, diff = simulate(v)
                memo[v] = (version[v], shortcuts, diff)
            priority = diff + deleted[v]
            if pq and priority > pq[0][0]:
                # Stale priority: requeue with the fresh value and let a
                # currently-better node contract first.
                heappush(pq, (priority, v))
                continue
            del memo[v]
            self.contract(v, shortcuts)
            rank[v] = order
            order += 1


# ----------------------------------------------------------------------
# The hierarchy
# ----------------------------------------------------------------------
class ContractionHierarchy:
    """Rank order plus shortcut arcs, with query and bucket machinery.

    Instances come from :meth:`build` (or :func:`load_or_build`), never
    direct construction.  A hierarchy is keyed to one network
    fingerprint; :meth:`bind` re-attaches a loaded instance after the
    fingerprint check.
    """

    def __init__(
        self,
        *,
        fingerprint: str,
        n_nodes: int,
        directed: bool,
        rank: np.ndarray,
        arc_u: np.ndarray,
        arc_v: np.ndarray,
        arc_w: np.ndarray,
        arc_mid: np.ndarray,
        alt_u: np.ndarray,
        alt_v: np.ndarray,
        alt_w: np.ndarray,
        alt_mid: np.ndarray,
        network: Network | None = None,
        source_path: str | None = None,
    ) -> None:
        if not (
            len(arc_u) == len(arc_v) == len(arc_w) == len(arc_mid)
            and len(alt_u) == len(alt_v) == len(alt_w) == len(alt_mid)
        ) or rank.shape != (n_nodes,):
            raise GraphError("inconsistent contraction-hierarchy arrays")
        self._fingerprint = fingerprint
        self._n_nodes = int(n_nodes)
        self._directed = bool(directed)
        self._rank_arr = rank
        self._arc_u = arc_u
        self._arc_v = arc_v
        self._arc_w = arc_w
        self._arc_mid = arc_mid
        #: Tied alternative records (``_Contractor.alts``), same layout.
        self._alt_u = alt_u
        self._alt_v = alt_v
        self._alt_w = alt_w
        self._alt_mid = alt_mid
        self._network = network
        self.source_path = source_path
        # Lazy search-side structures (see materialize_caches).
        self._rank: list[int] | None = None
        self._arcs: dict[tuple[int, int], tuple[float, int]] | None = None
        self._up: tuple[list[int], list[int], list[float]] | None = None
        self._down: tuple[list[int], list[int], list[float]] | None = None
        self._n_up_arcs = 0
        #: Arcs whose unpacking passes a tied record (see _tied_path).
        self._tainted: set[tuple[int, int]] | None = None
        #: Kernel workspace over the original edges, built on first tie.
        self._base_ws: DijkstraWorkspace | None = None
        #: Reusable generation-stamped label arrays for forward sweeps.
        self._sweep_state: _SweepState | None = None
        #: Left-to-right weight tuples of unpacked arcs, memoized.
        self._flat: dict[tuple[int, int], tuple[float, ...]] = {}
        #: Target-cone sets memoized per facility/target tuple (small
        #: FIFO: repeated blocks and stream pools reuse one facility set).
        self._cones: dict[tuple[int, ...], _TargetCones] = {}

    # ------------------------------------------------------------------
    # Construction and binding
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, network: Network) -> ContractionHierarchy:
        """Contract ``network`` bottom-up and keep the surviving arcs.

        Deterministic given the network: priorities tie-break on node
        id and the arc arrays are stored sorted, so a rebuilt hierarchy
        is byte-identical to a persisted-and-reloaded one.  Bumps
        ``oracle.builds`` and counts inserted shortcuts under
        ``ch.shortcuts``.
        """
        indptr, indices, weights = network.csr_lists
        contractor = _Contractor(
            indptr,
            indices,
            weights,
            network.n_nodes,
            symmetric=not network.directed,
        )
        contractor.run()
        items = sorted(contractor.arcs.items())
        arc_u = np.asarray([uv[0] for uv, _ in items], dtype=np.int64)
        arc_v = np.asarray([uv[1] for uv, _ in items], dtype=np.int64)
        arc_w = np.asarray([rec[0] for _, rec in items], dtype=np.float64)
        arc_mid = np.asarray([rec[1] for _, rec in items], dtype=np.int64)
        alts = sorted(
            (uv, rec) for uv, recs in contractor.alts.items() for rec in recs
        )
        reg = metrics.active()
        reg.counter("oracle.builds").add()
        reg.counter(COUNTER_SHORTCUTS).add(int((arc_mid >= 0).sum()))
        ch = cls(
            fingerprint=network.fingerprint,
            n_nodes=network.n_nodes,
            directed=network.directed,
            rank=np.asarray(contractor.rank, dtype=np.int64),
            arc_u=arc_u,
            arc_v=arc_v,
            arc_w=arc_w,
            arc_mid=arc_mid,
            alt_u=np.asarray([uv[0] for uv, _ in alts], dtype=np.int64),
            alt_v=np.asarray([uv[1] for uv, _ in alts], dtype=np.int64),
            alt_w=np.asarray([rec[0] for _, rec in alts], dtype=np.float64),
            alt_mid=np.asarray([rec[1] for _, rec in alts], dtype=np.int64),
            network=network,
        )
        ch.materialize_caches()
        return ch

    def bind(self, network: Network) -> ContractionHierarchy:
        """Attach a live network after a fingerprint check."""
        if not self.matches(network):
            raise GraphError(
                f"hierarchy was built for fingerprint "
                f"{self._fingerprint[:12]}..., network has "
                f"{network.fingerprint[:12]}..."
            )
        self._network = network
        return self

    def matches(self, network: Network) -> bool:
        """Whether this hierarchy was built for exactly this adjacency."""
        return (
            self._n_nodes == network.n_nodes
            and self._fingerprint == network.fingerprint
        )

    def materialize_caches(self) -> None:
        """Force-fill the lazy search-side structures.

        Splits the master arcs into the upward CSR half (forward
        searches) and the reversed downward half (backward searches).
        Called before handing the hierarchy to a worker pool so no
        pool-reachable read performs a first-touch write on a shared
        instance (the :class:`~repro.network.parallel` pre-fork
        contract, reprolint REP103).
        """
        if self._up is not None:
            return
        # One checkpoint per materialization (a per-network one-off).
        _budget_checkpoint()
        n = self._n_nodes
        rank = [int(r) for r in self._rank_arr]
        arcs: dict[tuple[int, int], tuple[float, int]] = {}
        up_lists: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        down_lists: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w, mid in zip(
            self._arc_u.tolist(),
            self._arc_v.tolist(),
            self._arc_w.tolist(),
            self._arc_mid.tolist(),
        ):
            arcs[(u, v)] = (w, mid)
            if rank[u] < rank[v]:
                up_lists[u].append((v, w))
            else:
                # Stored reversed: a backward search from target t
                # expands node y over original arcs (x -> y) with
                # rank[x] > rank[y].
                down_lists[v].append((u, w))
        # A shortcut's unpacking passes a tied record when the arc itself
        # or one of its halves does; halves' middle nodes rank lower.
        tainted = set(zip(self._alt_u.tolist(), self._alt_v.tolist()))
        if tainted:
            for _, u, v, mid in sorted(
                (rank[mid], u, v, mid)
                for (u, v), (_w, mid) in arcs.items()
                if mid >= 0
            ):
                if (u, mid) in tainted or (mid, v) in tainted:
                    tainted.add((u, v))
        self._rank = rank
        self._arcs = arcs
        self._tainted = tainted
        self._up = _pack_csr(up_lists)
        self._down = _pack_csr(down_lists)
        self._n_up_arcs = sum(len(lst) for lst in up_lists)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Fingerprint of the network the hierarchy was built for."""
        return self._fingerprint

    @property
    def n_arcs(self) -> int:
        """Total surviving arcs (original + shortcuts)."""
        return len(self._arc_u)

    @property
    def n_shortcuts(self) -> int:
        """Number of shortcut arcs (mid-node records)."""
        return int((self._arc_mid >= 0).sum())

    def info(self) -> dict[str, Any]:
        """JSON-ready summary (the ``repro oracle info`` payload)."""
        self.materialize_caches()
        n = self._n_nodes
        return {
            "format_version": CH_FORMAT_VERSION,
            "kind": "ch",
            "fingerprint": self._fingerprint,
            "n_nodes": n,
            "directed": self._directed,
            "n_arcs": self.n_arcs,
            "n_shortcuts": self.n_shortcuts,
            "avg_upward_degree": (self._n_up_arcs / n) if n else 0.0,
            "blob_bytes": int(
                self._rank_arr.nbytes
                + self._arc_u.nbytes
                + self._arc_v.nbytes
                + self._arc_w.nbytes
                + self._arc_mid.nbytes
                + self._alt_u.nbytes
                + self._alt_v.nbytes
                + self._alt_w.nbytes
                + self._alt_mid.nbytes
            ),
            "source_path": self.source_path,
        }

    def __repr__(self) -> str:
        return (
            f"ContractionHierarchy(n_nodes={self._n_nodes}, "
            f"arcs={self.n_arcs}, shortcuts={self.n_shortcuts}, "
            f"fingerprint={self._fingerprint[:12]}...)"
        )

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def _upward_sweep(
        self, seeds: Iterable[int]
    ) -> tuple[list[int], list[float], list[int], set[int]]:
        """Exhaustive forward Dijkstra on the upward half.

        Multi-seed: every seed starts at distance zero (the kernel's
        multi-source semantics).  Returns ``(settled, dist, parent,
        ties)`` where ``settled`` lists the non-stalled nodes in settle
        order, ``dist``/``parent`` are the shared generation-stamped
        label arrays -- **valid only until the next forward sweep** --
        and ``ties`` holds the nodes a second relaxation reached within
        the :data:`_TIE_EPS` band of their label.  Seeds carry parent
        ``-1``.  :meth:`query` and :meth:`distance_block` finish each
        sweep before the next; streams interleave, so
        :class:`CHFacilityStream` pauses a sweep of its own instead.
        """
        _budget_checkpoint()
        self.materialize_caches()
        indptr, indices, weights = self._up  # type: ignore[misc]
        dptr, dind, dw = self._down  # type: ignore[misc]
        n = self._n_nodes
        state = self._sweep_state
        if state is None:
            state = self._sweep_state = _SweepState(n)
        state.generation += 1
        gen = state.generation
        dist = state.dist
        parent = state.parent
        stamp = state.stamp
        done = state.done
        settled: list[int] = []
        ties: set[int] = set()
        heap: list[tuple[float, int]] = []
        for s in seeds:
            s = int(s)
            if not (0 <= s < n):
                raise GraphError(f"node {s} outside 0..{n - 1}")
            if stamp[s] != gen:
                stamp[s] = gen
                dist[s] = 0.0
                parent[s] = -1
                heap.append((0.0, s))
        heap.sort()
        stall_margin = 1.0 - _TIE_EPS
        band = 1.0 + _TIE_EPS
        heappush, heappop = heapq.heappush, heapq.heappop
        while heap:
            d, u = heappop(heap)
            if done[u] == gen:
                continue
            done[u] = gen
            # Stall-on-demand: a higher-ranked in-neighbor that reaches
            # u strictly shorter (beyond the tie band) proves u's upward
            # prefix is not on any candidate shortest path -- skip both
            # expansion and bucket scanning.  The strict margin keeps
            # every floating-point-tied witness meeting node alive.
            stalled = False
            for pos in range(dptr[u], dptr[u + 1]):
                y = dind[pos]
                if stamp[y] == gen and dist[y] + dw[pos] < d * stall_margin:
                    stalled = True
                    break
            if stalled:
                continue
            settled.append(u)
            lo, hi = indptr[u], indptr[u + 1]
            for pos in range(lo, hi):
                v = indices[pos]
                nd = d + weights[pos]
                if stamp[v] != gen:
                    stamp[v] = gen
                    dist[v] = nd
                    parent[v] = u
                    heappush(heap, (nd, v))
                    continue
                dv = dist[v]
                if nd < dv:
                    if nd >= dv * stall_margin:
                        ties.add(v)
                    dist[v] = nd
                    parent[v] = u
                    heappush(heap, (nd, v))
                elif nd <= dv * band:
                    ties.add(v)
        c_settles, _ = _SWEEP_COUNTERS.get()
        c_settles.add(len(settled))
        return settled, dist, parent, ties

    def _downward_cone(
        self, target: int
    ) -> tuple[dict[int, float], dict[int, int], set[int]]:
        """Exhaustive backward Dijkstra from ``target`` on the downward half.

        ``parent[x]`` is the next node on the ``x -> target`` walk (the
        node ``x`` was reached *from* in the reversed search), used to
        re-fold the original weight sequence of the descent.  The third
        value holds the nodes with a second next node in the tie band,
        as :meth:`_upward_sweep`'s ``ties``.
        """
        _budget_checkpoint()
        self.materialize_caches()
        indptr, indices, weights = self._down  # type: ignore[misc]
        uptr, uind, uw = self._up  # type: ignore[misc]
        n = self._n_nodes
        t = int(target)
        if not (0 <= t < n):
            raise GraphError(f"node {t} outside 0..{n - 1}")
        dist: dict[int, float] = {t: 0.0}
        parent: dict[int, int] = {t: -1}
        settled: dict[int, float] = {}
        ties: set[int] = set()
        heap: list[tuple[float, int]] = [(0.0, t)]
        stall_margin = 1.0 - _TIE_EPS
        band = 1.0 + _TIE_EPS
        heappush, heappop = heapq.heappush, heapq.heappop
        while heap:
            d, y = heappop(heap)
            if y in settled or d > dist[y]:
                continue
            # Symmetric stall-on-demand: an upward arc into a node the
            # cone already reaches strictly shorter proves y's descent
            # is not on any candidate shortest path (same margin
            # argument as the forward sweep); stalled nodes deposit no
            # bucket entry.
            stalled = False
            for pos in range(uptr[y], uptr[y + 1]):
                dx = dist.get(uind[pos])
                if dx is not None and dx + uw[pos] < d * stall_margin:
                    stalled = True
                    break
            if stalled:
                continue
            settled[y] = d
            lo, hi = indptr[y], indptr[y + 1]
            for pos in range(lo, hi):
                x = indices[pos]
                nd = d + weights[pos]
                dx = dist.get(x, INF)
                if nd < dx:
                    if nd >= dx * stall_margin:
                        ties.add(x)
                    dist[x] = nd
                    parent[x] = y
                    heappush(heap, (nd, x))
                elif nd <= dx * band:
                    ties.add(x)
        c_settles, _ = _SWEEP_COUNTERS.get()
        c_settles.add(len(settled))
        return settled, parent, ties

    def _cones_for(self, targets: tuple[int, ...]) -> _TargetCones:
        """Memoized backward cones + node buckets for a target tuple."""
        cones = self._cones.get(targets)
        if cones is None:
            cones = _TargetCones(self, targets)
            if len(self._cones) >= 4:
                self._cones.pop(next(iter(self._cones)))
            self._cones[targets] = cones
        return cones

    # ------------------------------------------------------------------
    # Exact left-to-right re-folding
    # ------------------------------------------------------------------
    def _flat_arc(self, u: int, v: int) -> tuple[float, ...]:
        """Original edge weights under arc ``(u, v)``, in path order.

        Shortcuts expand through their middle nodes iteratively (no
        recursion: nesting depth grows with the hierarchy height).  The
        constituent records are frozen once the middle node contracts,
        so end-state lookups reproduce the creation-time decomposition.
        """
        flat = self._flat
        cached = flat.get((u, v))
        if cached is not None:
            return cached
        # One checkpoint per cold expansion (memoized thereafter).
        _budget_checkpoint()
        arcs = self._arcs
        assert arcs is not None
        out: list[float] = []
        stack = [(u, v)]
        while stack:
            a, b = stack.pop()
            hit = flat.get((a, b))
            if hit is not None:
                out.extend(hit)
                continue
            w, mid = arcs[(a, b)]
            if mid < 0:
                out.append(w)
            else:
                stack.append((mid, b))
                stack.append((a, mid))
        result = tuple(out)
        flat[(u, v)] = result
        return result

    def _lr_forward(
        self,
        x: int,
        parent: dict[int, int] | list[int],
        memo: dict[int, float],
    ) -> float:
        """Left-to-right fold of the sweep path from its seed to ``x``.

        Memoized per forward sweep: the fold of a prefix is reused by
        every candidate deeper on the same tree branch.
        """
        _budget_checkpoint()
        chain: list[int] = []
        y = x
        while y not in memo:
            p = parent[y]
            if p < 0:
                memo[y] = 0.0
                break
            chain.append(y)
            y = p
        for y in reversed(chain):
            p = parent[y]
            acc = memo[p]
            # Flat-arc expansion per parent hop; the cone size bounds the
            # total work.
            for w in self._flat_arc(p, y):
                acc = acc + w
            memo[y] = acc
        return memo[x]

    def _lr_value(
        self,
        x: int,
        fwd_parent: dict[int, int] | list[int],
        fwd_memo: dict[int, float],
        cone: _TargetCones,
        target_index: int,
    ) -> float:
        """Exact kernel-identical distance through meeting node ``x``."""
        _budget_checkpoint()
        acc = self._lr_forward(x, fwd_parent, fwd_memo)
        for w in cone.descent_weights(target_index, x):
            acc = acc + w
        return acc

    # ------------------------------------------------------------------
    # Float-association ties
    # ------------------------------------------------------------------
    def _tied_path(
        self,
        x: int,
        parent: dict[int, int] | list[int],
        ties: set[int],
        memo: dict[int, bool],
        descent: bool = False,
    ) -> bool:
        """Whether the tree path from ``x`` to its root may hide a tie.

        True when a node on it is in ``ties`` (a second route reached it
        in the band) or an arc on it is tainted (its unpacking passes a
        tied record).  Either way the re-fold of this path alone may
        miss the kernel's minimum left-to-right sum.  Descent trees
        (``descent=True``) point toward their target, so their arcs run
        from node to parent.  Memoized per tree, like :meth:`_lr_forward`.
        """
        _budget_checkpoint()
        tainted = self._tainted
        assert tainted is not None
        chain: list[int] = []
        y = x
        while y not in memo:
            p = parent[y]
            if p < 0:
                memo[y] = y in ties
                break
            chain.append(y)
            y = p
        for y in reversed(chain):
            p = parent[y]
            memo[y] = (
                memo[p]
                or y in ties
                or ((y, p) if descent else (p, y)) in tainted
            )
        return memo[x]

    def _candidate_tied(
        self,
        x: int,
        fwd_parent: dict[int, int] | list[int],
        fwd_ties: set[int],
        fwd_memo: dict[int, bool],
        cone: _TargetCones,
        target_index: int,
    ) -> bool:
        """Whether the up-down path through ``x`` may hide a tie."""
        if not (fwd_ties or self._tainted or cone.ties[target_index]):
            return False
        return self._tied_path(
            x, fwd_parent, fwd_ties, fwd_memo
        ) or cone.descent_tied(target_index, x)

    def _exact_lengths(
        self, seeds: Sequence[int], targets: Sequence[int], radius: float
    ) -> list[float]:
        """Kernel Dijkstra over the original edges, for tied candidates.

        The kernel's value is the minimum left-to-right sum over *all*
        paths; when a candidate's tree path may hide a tie, one search
        over the original edges (``mid == -1`` records, master or tied)
        finds it.  ``radius`` is a re-folded candidate value, the sum of
        a real path, so every target lies within it.
        """
        ws = self._base_ws
        if ws is None:
            n = self._n_nodes
            lists: list[list[tuple[int, float]]] = [[] for _ in range(n)]
            for u, v, w, mid in zip(
                self._arc_u.tolist() + self._alt_u.tolist(),
                self._arc_v.tolist() + self._alt_v.tolist(),
                self._arc_w.tolist() + self._alt_w.tolist(),
                self._arc_mid.tolist() + self._alt_mid.tolist(),
            ):
                if mid < 0:
                    lists[u].append((v, w))
            ws = self._base_ws = DijkstraWorkspace.from_csr(
                *_pack_csr(lists), n
            )
        metrics.active().counter(COUNTER_TIE_FALLBACKS).add()
        ws.run(seeds, targets=set(targets), radius=radius)
        return ws.gather(targets)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> float:
        """Exact point-to-point distance via the bidirectional sweep.

        The winning up-down path (and every near-tie candidate) is
        unpacked to original edges and re-folded left-to-right, the
        value the kernel's relaxation order converges to; a candidate
        that may hide a float-association tie is settled by one kernel
        search (see the module docstring).  Returns ``inf`` when
        unreachable.
        """
        _budget_checkpoint()
        s, t = int(source), int(target)
        n = self._n_nodes
        for node in (s, t):
            if not (0 <= node < n):
                raise GraphError(f"node {node} outside 0..{n - 1}")
        metrics.active().counter("oracle.queries").add()
        if s == t:
            return 0.0
        cone = self._cones_for((t,))
        settled, dist_f, parent_f, ties_f = self._upward_sweep([s])
        best = INF
        candidates: list[int] = []
        _, c_scans = _SWEEP_COUNTERS.get()
        scans = 0
        bucket = cone.bucket
        for x in settled:
            entries = bucket.get(x)
            if entries is None:
                continue
            scans += len(entries)
            db = entries[0][1]
            val = dist_f[x] + db
            if val <= best * (1.0 + _TIE_EPS):
                if val < best:
                    best = val
                candidates.append(x)
        c_scans.add(scans)
        if best == INF:
            return INF
        memo: dict[int, float] = {}
        tie_memo: dict[int, bool] = {}
        threshold = best * (1.0 + _TIE_EPS)
        result = INF
        tied = False
        for x in candidates:
            if dist_f[x] + bucket[x][0][1] > threshold:
                continue
            lr = self._lr_value(x, parent_f, memo, cone, 0)
            if lr < result:
                result = lr
            tied = tied or self._candidate_tied(
                x, parent_f, ties_f, tie_memo, cone, 0
            )
        if tied:
            return self._exact_lengths([s], [t], result)[0]
        return result

    def distance_block(
        self,
        source_groups: Sequence[Sequence[int]],
        targets: Sequence[int],
        *,
        radius: float = INF,
    ) -> np.ndarray:
        """Many-to-many bucket sweep: a whole distance-matrix block.

        One backward cone per target deposits ``(target, dist)`` bucket
        entries (memoized across blocks with identical targets); one
        forward sweep per source group then scans the buckets of the
        nodes it settles.  Entry ``[i, j]`` is the kernel's
        ``many_source_lengths(..., targets=...)`` value (tied candidates
        take one kernel search per group, see the module docstring); with
        ``radius``, entries beyond the bound are ``inf`` (left-to-right
        prefix sums of positive weights are monotone, so the post-hoc
        filter matches the kernel's in-search pruning).
        """
        target_list = [int(t) for t in targets]
        metrics.active().counter(COUNTER_MATRIX_BLOCKS).add()
        cone = self._cones_for(tuple(target_list))
        n_targets = len(target_list)
        out = np.full((len(source_groups), n_targets), INF, dtype=np.float64)
        _, c_scans = _SWEEP_COUNTERS.get()
        band = 1.0 + _TIE_EPS
        for i, group in enumerate(source_groups):
            settled, dist_f, parent_f, ties_f = self._upward_sweep(group)
            best = [INF] * n_targets
            # thresh[j] trails best[j] * band so the hot loop compares
            # without multiplying; entries above it can't be the minimum
            # or a floating-point tie of it.
            thresh = [INF] * n_targets
            cands: list[list[tuple[float, int]]] = [[] for _ in range(n_targets)]
            scans = 0
            bucket_get = cone.bucket.get
            for x in settled:
                entries = bucket_get(x)
                if entries is None:
                    continue
                scans += len(entries)
                gf = dist_f[x]
                for j, db in entries:
                    val = gf + db
                    if val <= thresh[j]:
                        if val < best[j]:
                            best[j] = val
                            thresh[j] = val * band
                        cands[j].append((val, x))
            c_scans.add(scans)
            memo: dict[int, float] = {}
            tie_memo: dict[int, bool] = {}
            # (j, re-folded value) of targets whose candidates may hide
            # a tie: one kernel search per group settles them all.
            tied: list[tuple[int, float]] = []
            row = out[i]
            for j in range(n_targets):
                bj = best[j]
                if bj == INF:
                    continue
                threshold = bj * (1.0 + _TIE_EPS)
                result = INF
                is_tied = False
                for val, x in cands[j]:
                    if val > threshold:
                        continue
                    lr = self._lr_value(x, parent_f, memo, cone, j)
                    if lr < result:
                        result = lr
                    is_tied = is_tied or self._candidate_tied(
                        x, parent_f, ties_f, tie_memo, cone, j
                    )
                if is_tied:
                    tied.append((j, result))
                elif result <= radius:
                    row[j] = result
            if tied:
                exact = self._exact_lengths(
                    group,
                    [target_list[j] for j, _ in tied],
                    max(value for _, value in tied),
                )
                for (j, _), value in zip(tied, exact, strict=True):
                    if value <= radius:
                        row[j] = value
        return out

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Persist as a versioned ``.npz`` blob (atomic rename write)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}.npz"
        np.savez(
            tmp,
            version=np.int64(CH_FORMAT_VERSION),
            fingerprint=np.str_(self._fingerprint),
            n_nodes=np.int64(self._n_nodes),
            directed=np.int64(self._directed),
            rank=self._rank_arr,
            arc_u=self._arc_u,
            arc_v=self._arc_v,
            arc_w=self._arc_w,
            arc_mid=self._arc_mid,
            alt_u=self._alt_u,
            alt_v=self._alt_v,
            alt_w=self._alt_w,
            alt_mid=self._alt_mid,
        )
        os.replace(tmp, path)
        self.source_path = path
        return path

    @classmethod
    def load(
        cls, path: str, network: Network | None = None
    ) -> ContractionHierarchy | None:
        """Load a persisted hierarchy, or ``None`` when the blob is unusable.

        *Any* blob failure (missing, truncated, corrupt, foreign
        version, fingerprint mismatch) returns ``None`` for a uniform
        rebuild fallback, while ``BudgetExceeded``/``KeyboardInterrupt``
        always propagate -- a deadline hit while deserializing must
        reach the fallback chain, not trigger a silent rebuild.
        """
        try:
            _budget_checkpoint()
            with np.load(path, allow_pickle=False) as blob:
                if int(blob["version"]) != CH_FORMAT_VERSION:
                    return None
                ch = cls(
                    fingerprint=str(blob["fingerprint"]),
                    n_nodes=int(blob["n_nodes"]),
                    directed=bool(int(blob["directed"])),
                    rank=np.asarray(blob["rank"], dtype=np.int64),
                    arc_u=np.asarray(blob["arc_u"], dtype=np.int64),
                    arc_v=np.asarray(blob["arc_v"], dtype=np.int64),
                    arc_w=np.asarray(blob["arc_w"], dtype=np.float64),
                    arc_mid=np.asarray(blob["arc_mid"], dtype=np.int64),
                    alt_u=np.asarray(blob["alt_u"], dtype=np.int64),
                    alt_v=np.asarray(blob["alt_v"], dtype=np.int64),
                    alt_w=np.asarray(blob["alt_w"], dtype=np.float64),
                    alt_mid=np.asarray(blob["alt_mid"], dtype=np.int64),
                    source_path=path,
                )
        except (KeyboardInterrupt, BudgetExceeded):
            raise
        except Exception:
            return None
        if network is not None:
            if not ch.matches(network):
                return None
            ch._network = network
        return ch

    def __getstate__(self) -> dict[str, Any]:
        # Ship only the canonical arrays: the search halves, unpack
        # memos, and cone sets rebuild deterministically on the other
        # side, and the network travels separately (workers attach CSR
        # through shared memory, not a pickled Network).
        state = self.__dict__.copy()
        state["_network"] = None
        state["_rank"] = None
        state["_arcs"] = None
        state["_up"] = None
        state["_down"] = None
        state["_tainted"] = None
        state["_base_ws"] = None
        state["_n_up_arcs"] = 0
        state["_sweep_state"] = None
        state["_flat"] = {}
        state["_cones"] = {}
        return state


class _SweepState:
    """Generation-stamped label arrays reused across forward sweeps.

    Avoids a dict allocation per sweep: labels are valid when their
    stamp matches the current generation, so resetting costs nothing.
    Plain lists beat numpy arrays here -- the sweep touches labels one
    scalar at a time.
    """

    __slots__ = ("dist", "parent", "stamp", "done", "generation")

    def __init__(self, n: int) -> None:
        self.dist = [INF] * n
        self.parent = [-1] * n
        self.stamp = [0] * n
        self.done = [0] * n
        self.generation = 0


class _TargetCones:
    """Backward cones of one target tuple, bucketed per meeting node.

    ``bucket[x]`` lists ``(target_index, ch_distance)`` for every target
    whose cone reaches ``x`` -- the structure the forward sweeps scan.
    ``descent_weights`` re-folds lazily: the original-edge weight
    sequence of the ``x -> target`` descent, memoized per ``(target, x)``
    since candidate meeting nodes repeat heavily across sources.
    ``ties[j]`` holds the nodes of target ``j``'s cone with a second
    next node in the tie band (see ``descent_tied``).
    """

    __slots__ = (
        "_ch", "targets", "bucket", "ties", "_parents", "_seqs", "_tied"
    )

    def __init__(self, ch: ContractionHierarchy, targets: tuple[int, ...]) -> None:
        self._ch = ch
        self.targets = targets
        self.bucket = {}
        self.ties: list[set[int]] = []
        self._parents: list[dict[int, int]] = []
        self._seqs: list[dict[int, tuple[float, ...]]] = []
        self._tied: list[dict[int, bool]] = []
        bucket: dict[int, list[tuple[int, float]]] = self.bucket
        for j, t in enumerate(targets):
            dist_b, parent_b, ties_b = ch._downward_cone(t)
            self.ties.append(ties_b)
            self._parents.append(parent_b)
            self._seqs.append({t: ()})
            self._tied.append({})
            for x, db in dist_b.items():
                entry = (j, db)
                got = bucket.get(x)
                if got is None:
                    bucket[x] = [entry]
                else:
                    got.append(entry)

    def descent_weights(self, j: int, x: int) -> tuple[float, ...]:
        """Original weights along the ``x -> targets[j]`` descent, in order."""
        seqs = self._seqs[j]
        cached = seqs.get(x)
        if cached is not None:
            return cached
        # One checkpoint per cold descent (memoized thereafter).
        _budget_checkpoint()
        parent = self._parents[j]
        flat_arc = self._ch._flat_arc
        chain: list[int] = []
        y = x
        while y not in seqs:
            chain.append(y)
            y = parent[y]
        for y in reversed(chain):
            p = parent[y]
            seqs[y] = flat_arc(y, p) + seqs[p]
        return seqs[x]

    def descent_tied(self, j: int, x: int) -> bool:
        """Whether the ``x -> targets[j]`` descent may hide a tie."""
        return self._ch._tied_path(
            x, self._parents[j], self.ties[j], self._tied[j], descent=True
        )


# ----------------------------------------------------------------------
# CH-backed nearest-facility stream
# ----------------------------------------------------------------------
class CHFacilityStream:
    """Drop-in for :class:`~repro.network.incremental.NearestFacilityStream`.

    A paused forward sweep from the source scans the shared facility
    cones (memoized on the hierarchy, so a stream pool pays the backward
    sweeps once) as it settles nodes; per-facility candidates go into a
    refine heap keyed by a conservative lower bound of the exact
    distance.  Popping a bound entry re-folds the exact left-to-right
    value and re-pushes it; popping an exact entry emits it --
    facilities emit in non-decreasing exact distance with ties on node
    id, matching the kernel stream's ``(distance, node)`` order exactly.

    The sweep settles only as far as the next emission needs (the CH
    stopping rule of Geisberger et al., applied per facility to the
    bucket scan).  A meeting node settled beyond ``best * (1 + eps)``
    cannot add a candidate for a facility whose best candidate is
    ``best``, so the facility gets its bound entry once the sweep
    minimum passes that threshold; a refine entry pops only while its
    key is below ``sweep_min * (1 - eps) / (1 + eps)``
    (:data:`_FLOOR_FACTOR`), which bounds every bound entry still to
    come.  A paused Dijkstra settles in the order of one run to the end,
    so stall decisions, candidate lists, re-folds and the emission order
    are exactly those of an exhaustive sweep; pausing saves settles
    (``ch.upward_settles``) and bucket scans (``ch.bucket_scans``) only.
    """

    def __init__(
        self,
        ch: ContractionHierarchy,
        source: int,
        facility_nodes: Iterable[int],
    ) -> None:
        _budget_checkpoint()
        source = int(source)
        n = ch._n_nodes
        if not (0 <= source < n):
            raise GraphError(f"node {source} outside 0..{n - 1}")
        self._source = source
        self._ch = ch
        facilities = sorted({int(f) for f in facility_nodes})
        self._facilities = facilities
        self._cone = ch._cones_for(tuple(facilities))
        # The paused upward sweep: labels, tree parents (the re-folds
        # walk them) and its heap.  A pop above its node's label is
        # stale: relaxations push strictly improved labels only.
        self._dist: dict[int, float] | None = {source: 0.0}
        self._parent_f: dict[int, int] = {source: -1}
        self._sweep: list[tuple[float, int]] = [(0.0, source)] if facilities else []
        self._lr_memo: dict[int, float] = {}
        # Nodes a second relaxation reached in the tie band, and the
        # tree-path memo of ContractionHierarchy._tied_path.
        self._ties: set[int] = set()
        self._tie_memo: dict[int, bool] = {}
        n_fac = len(facilities)
        # Facilities whose bound entry is still to come; at zero the
        # sweep has nothing left to find.
        self._unreleased = n_fac
        self._best = [INF] * n_fac
        # thresh[j] trails best[j] * (1 + eps): candidates above it can
        # be neither the minimum nor a floating-point tie of it.  -inf
        # once j's bound entry is in the refine heap.
        self._thresh = [INF] * n_fac
        self._cands: list[list[tuple[float, int]]] = [[] for _ in range(n_fac)]
        # (thresh, j), pushed at every improvement of best[j]; j's list
        # is complete once the sweep minimum exceeds its threshold.
        self._pending: list[tuple[float, int]] = []
        # Entries: (key, facility index, is_lower_bound); facilities are
        # sorted, so index order is the kernel's node-id tie order.  The
        # bound key best*(1 - eps) under-estimates the re-folded exact
        # value by more than any association error, so every unemitted
        # facility's exact distance stays >= its key (the stream-order
        # invariant, and what SSPA's stop consumes via
        # frontier_lower_bound).
        self._heap: list[tuple[float, int, int]] = []
        self._found: list[tuple[int, float]] = []
        self._exhausted = False
        metrics.active().counter("oracle.streams").add()

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

        Zero-based; sweeps and refines lazily.  ``None`` when fewer than
        ``rank + 1`` facilities are reachable.
        """
        # Over all calls, each node is settled and each heap entry taken at
        # most once.
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
        """Cheap lower bound on the next unemitted facility's distance.

        The smaller of the refine heap's top and the sweep floor
        (:data:`_FLOOR_FACTOR`), which bounds every bound entry still to
        come; ``inf`` once the sweep is over and the refine heap empty.
        Never resumes the sweep.
        """
        sweep = self._sweep
        floor = sweep[0][0] * _FLOOR_FACTOR if sweep else INF
        heap = self._heap
        if heap and heap[0][0] < floor:
            return heap[0][0]
        return floor

    def _exact(self, j: int) -> float:
        """Re-fold the exact kernel-identical distance to facility ``j``.

        Candidates whose paths may hide a float-association tie go to
        one kernel search instead (:meth:`ContractionHierarchy._exact_lengths`).
        """
        _budget_checkpoint()
        threshold = self._best[j] * (1.0 + _TIE_EPS)
        ch = self._ch
        result = INF
        tied = False
        for val, x in self._cands[j]:
            if val > threshold:
                continue
            lr = ch._lr_value(x, self._parent_f, self._lr_memo, self._cone, j)
            if lr < result:
                result = lr
            tied = tied or ch._candidate_tied(
                x, self._parent_f, self._ties, self._tie_memo, self._cone, j
            )
        if tied:
            return ch._exact_lengths(
                [self._source], [self._facilities[j]], result
            )[0]
        return result

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
        """Sweep and refine until one more facility (in ``allowed``) is emitted."""
        # One checkpoint up front and one per candidate passed over (the
        # kernel stream's convention); the settle loop below stays
        # call-free, as _upward_sweep's does.
        _budget_checkpoint()
        heap = self._heap
        sweep = self._sweep
        pending = self._pending
        best = self._best
        thresh = self._thresh
        heappush, heappop = heapq.heappush, heapq.heappop
        heapreplace = heapq.heapreplace
        while True:
            sweep_min = sweep[0][0] if sweep else INF
            while pending and pending[0][0] < sweep_min:
                t, j = heappop(pending)
                if t == thresh[j]:
                    thresh[j] = -INF
                    self._unreleased -= 1
                    heappush(heap, (best[j] * (1.0 - _TIE_EPS), j, 1))
            if sweep and not self._unreleased:
                sweep.clear()
                sweep_min = INF
            if not sweep:
                # Labels are dead weight once the sweep is over; the
                # parents stay for the re-folds still to come.
                self._dist = None
            if heap and heap[0][0] < sweep_min * _FLOOR_FACTOR:
                key, j, is_lb = heap[0]
                if is_lb:
                    # Re-fold before the entry leaves the heap: a budget
                    # expiring inside the re-fold must not lose it.
                    heapreplace(heap, (self._exact(j), j, 0))
                    continue
                heappop(heap)
                node = self._facilities[j]
                self._found.append((node, key))
                if allowed is None or node in allowed:
                    return
                _budget_checkpoint()
                continue
            if not sweep:
                break
            # Settle until the sweep minimum passes the next threshold:
            # a pending facility's, or the one that lets the refine top
            # pop.
            release_at = pending[0][0] if pending else INF
            top = heap[0][0] if heap else INF
            ch = self._ch
            indptr, indices, weights = ch._up  # type: ignore[misc]
            dptr, dind, dw = ch._down  # type: ignore[misc]
            dist = self._dist
            assert dist is not None
            dist_get = dist.get
            parent = self._parent_f
            tie = self._ties.add
            cands = self._cands
            bucket_get = self._cone.bucket.get
            stall_margin = 1.0 - _TIE_EPS
            band = 1.0 + _TIE_EPS
            settles = scans = 0
            while sweep:
                d = sweep[0][0]
                if d > release_at or top < d * _FLOOR_FACTOR:
                    break
                u = heappop(sweep)[1]
                if d > dist[u]:
                    continue
                # Stall-on-demand, as in ContractionHierarchy._upward_sweep.
                stalled = False
                for pos in range(dptr[u], dptr[u + 1]):
                    dy = dist_get(dind[pos])
                    if dy is not None and dy + dw[pos] < d * stall_margin:
                        stalled = True
                        break
                if stalled:
                    continue
                settles += 1
                entries = bucket_get(u)
                if entries is not None:
                    scans += len(entries)
                    for j, db in entries:
                        val = d + db
                        if val <= thresh[j]:
                            if val < best[j]:
                                best[j] = val
                                t = thresh[j] = val * band
                                heappush(pending, (t, j))
                                if t < release_at:
                                    release_at = t
                            cands[j].append((val, u))
                for pos in range(indptr[u], indptr[u + 1]):
                    v = indices[pos]
                    nd = d + weights[pos]
                    dv = dist_get(v, INF)
                    if nd < dv:
                        if nd >= dv * stall_margin:
                            tie(v)
                        dist[v] = nd
                        parent[v] = u
                        heappush(sweep, (nd, v))
                    elif nd <= dv * band:
                        tie(v)
            c_settles, c_scans = _SWEEP_COUNTERS.get()
            c_settles.add(settles)
            c_scans.add(scans)
        self._exhausted = True


# ----------------------------------------------------------------------
# Persistence helpers
# ----------------------------------------------------------------------
def cache_path(directory: str, network: Network) -> str:
    """Canonical blob path for ``network``'s hierarchy in ``directory``."""
    name = f"ch-v{CH_FORMAT_VERSION}-{network.fingerprint[:20]}.npz"
    return os.path.join(directory, name)


def load_or_build(
    network: Network, cache_dir: str | None = None
) -> ContractionHierarchy:
    """Load the cached hierarchy for ``network``, rebuilding on any miss.

    A usable blob bumps ``oracle.cache_hits``; anything else bumps
    ``oracle.cache_misses`` and rebuilds (re-persisting when a directory
    is configured).
    """
    if cache_dir:
        path = cache_path(cache_dir, network)
        ch = ContractionHierarchy.load(path, network)
        if ch is not None:
            metrics.active().counter("oracle.cache_hits").add()
            return ch
    metrics.active().counter("oracle.cache_misses").add()
    ch = ContractionHierarchy.build(network)
    if cache_dir:
        ch.save(cache_path(cache_dir, network))
    return ch


def _pack_csr(
    lists: list[list[tuple[int, float]]],
) -> tuple[list[int], list[int], list[float]]:
    """Flatten per-node ``(neighbor, weight)`` lists into CSR triples."""
    _budget_checkpoint()
    indptr = [0]
    indices: list[int] = []
    weights: list[float] = []
    for neighbors in lists:
        for v, w in neighbors:
            indices.append(v)
            weights.append(w)
        indptr.append(len(indices))
    return indptr, indices, weights
