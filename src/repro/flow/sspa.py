"""Successive Shortest Path matching with lazy edge materialization.

This module implements Algorithm 2 of the paper (``FindPair``): augment
one unit of flow from a customer to the nearest facility with residual
capacity, rewiring earlier assignments when beneficial, while revealing
bipartite edges only when the Theorem-1 pruning threshold proves they
could matter.

Node encoding inside the residual Dijkstra: customer ``i`` is node ``i``,
facility ``j`` is node ``m + j``.  Arcs of the residual graph:

* forward ``i -> j`` for every materialized, unmatched pair, with reduced
  cost ``w(i, j) - p_i + p_j``;
* backward ``j -> i`` for every matched pair, with reduced cost
  ``-w(i, j) - p_j + p_i``.

Potentials are updated after each augmentation as in the paper
(``v.p += sp.length - v.dist`` for settled ``v``), which keeps all
residual reduced costs non-negative.  Newly revealed edges also keep
non-negative reduced cost because the stopping rule guarantees
``sp.length <= dist_x + nnDist(x) - p_x`` for every settled customer
``x`` -- exactly the slack needed (this is checked by an internal
assertion).

Two stopping thresholds are provided for the ablation study of Section V:

* ``ThresholdRule.THEOREM1`` -- the paper's tighter per-customer bound
  ``min_x {dist_x + nnDist(x) - p_x}``;
* ``ThresholdRule.TAU_PRIME`` -- the earlier bound of U et al. [15],
  ``min_x {dist_x + nnDist(x)} - tau_max``.  We take ``tau_max`` as the
  maximum potential over *all* settled customers, a slightly more
  conservative (hence still correct) form than the paper's Eq. (12).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import MatchingError
from repro.flow.bipartite import BipartiteState
from repro.network.graph import Network
from repro.network.incremental import StreamPool
from repro.obs import metrics
from repro.runtime.budget import checkpoint as _budget_checkpoint

INF = math.inf
_EPS = 1e-9

_DIJKSTRA_COUNTERS = metrics.CounterBlock("sspa.dijkstra_runs", "sspa.pops")
_REVEAL_COUNTERS = metrics.CounterBlock("sspa.reveals")
_AUGMENT_COUNTERS = metrics.CounterBlock("sspa.augmentations", "sspa.path_edges")
_PRUNE_COUNTERS = metrics.CounterBlock("oracle.prunes")


class ThresholdRule(Enum):
    """Which pruning bound FindPair uses to stop revealing edges."""

    THEOREM1 = "theorem1"
    TAU_PRIME = "tau_prime"


@dataclass
class AssignmentResult:
    """Outcome of :func:`assign_all`.

    Attributes
    ----------
    assignment:
        Facility index per customer.
    cost:
        Total true network distance of the assignment.
    state:
        The final bipartite state (exposes diagnostics such as the number
        of materialized edges and Dijkstra runs).
    """

    assignment: list[int]
    cost: float
    state: BipartiteState = field(repr=False)


def _residual_dijkstra(
    state: BipartiteState, source: int
) -> tuple[
    dict[int, float], dict[int, int], list[int], int | None, float
]:
    """Early-exit Dijkstra over the residual bipartite graph.

    Returns ``(dist, parent, settled, target, sp_len)`` where ``target``
    is the first settled facility with residual capacity (``None`` when
    the residual graph has no reachable free facility) and ``sp_len`` its
    reduced-cost distance.  Node ids: customers ``0..m-1``, facilities
    ``m..m+l-1``.

    A source with a single residual out-arc, into a facility that is
    not full, is answered without a heap: the search could only settle
    the source and that facility, so the result is built directly and
    equals the heap search's.  The ``sspa.dijkstra_runs``/``sspa.pops``
    counters and ``state.dijkstra_runs`` count heap searches only.
    :func:`find_pair` never passes a source without a residual out-arc:
    it reveals that source's next edge itself.
    """
    # One residual search is the matcher's unit of work: a cooperative
    # budget interrupts between searches, never inside one.
    _budget_checkpoint()
    m = state.m
    cust_p = state.customer_potential
    fac_p = state.facility_potential
    edges = state.edges
    matched = state.matched
    assigned = state.assigned
    # Fetched before the heap-free answers so that both counters exist,
    # at zero, on runs where no heap search happens.
    c_runs, c_pops = _DIJKSTRA_COUNTERS.get()

    # matched[source] is a subset of edges[source]'s keys (match() checks it).
    if len(edges[source]) - len(matched[source]) == 1:
        has = matched[source]
        for j, w in edges[source].items():
            if j not in has:
                break
        if not state.is_full(j):
            v = m + j
            # The heap search's relaxation from d = 0.0, bit for bit.
            d = 0.0 + (w - cust_p[source] + fac_p[j])
            return {source: 0.0, v: d}, {v: source}, [source, v], j, d

    dist: dict[int, float] = {source: 0.0}
    parent: dict[int, int] = {}
    settled: list[int] = []
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    heappush, heappop = heapq.heappush, heapq.heappop
    state.dijkstra_runs += 1
    c_runs.add()
    pops = 0

    while heap:
        d, u = heappop(heap)
        pops += 1
        if u in done:
            continue
        done.add(u)
        settled.append(u)
        if u >= m:
            j = u - m
            if not state.is_full(j):
                c_pops.add(pops)
                return dist, parent, settled, j, d
            # Full facility: relax backward arcs to its matched customers.
            pj = fac_p[j]
            for i2 in assigned[j]:
                rc = -edges[i2][j] - pj + cust_p[i2]
                nd = d + rc
                if nd < dist.get(i2, INF) - _EPS:
                    dist[i2] = nd
                    parent[i2] = u
                    heappush(heap, (nd, i2))
        else:
            i = u
            pi = cust_p[i]
            has = matched[i]
            for j2, w in edges[i].items():
                if j2 in has:
                    continue
                rc = w - pi + fac_p[j2]
                nd = d + rc
                v = m + j2
                if nd < dist.get(v, INF) - _EPS:
                    dist[v] = nd
                    parent[v] = u
                    heappush(heap, (nd, v))
    c_pops.add(pops)
    return dist, parent, settled, None, INF


# O(settled) scan immediately following the checkpointed residual Dijkstra.
def _stop_bound(  # reprolint: disable=REP101
    state: BipartiteState,
    dist: dict[int, float],
    settled: Sequence[int],
    sp_len: float,
    rule: ThresholdRule,
) -> tuple[float, int | None]:
    """Compute the edge-reveal threshold and its arg-min customer.

    Returns ``(bound, best_customer)``: ``sp_len <= bound`` certifies the
    current shortest path is optimal in the complete bipartite graph;
    ``best_customer`` is the settled customer whose next edge should be
    revealed otherwise (``None`` when no settled customer has a next
    edge that could undercut ``sp_len``).

    Under ``THEOREM1`` each settled customer's term is first computed
    from :meth:`BipartiteState.next_candidate_lower_bound`, which every
    stream kind answers from its paused heap without advancing.  Only a
    customer whose bounded term is below both ``sp_len`` (less
    ``_EPS``) and the best exact term so far pays an exact ``nnDist``
    peek, which may resume its stream: any other customer's exact term
    can neither block the stop nor be the strict arg-min.  The stop
    decision and ``best_customer`` are thus the exact rule's, while
    ``bound`` covers only the peeked customers.  A stop that needed no
    peek at all is counted under ``oracle.prunes``.
    """
    m = state.m
    cust_p = state.customer_potential
    best = INF
    best_customer: int | None = None

    if rule is ThresholdRule.THEOREM1:
        certified = sp_len != INF
        for u in settled:
            if u >= m:
                continue
            nn_lb = state.next_candidate_lower_bound(u)
            if nn_lb == INF:
                continue
            t_lb = dist[u] + nn_lb - cust_p[u]
            if sp_len <= t_lb + _EPS:
                continue
            certified = False
            if t_lb >= best:
                continue
            nn = state.next_candidate_distance(u)
            if nn == INF:
                continue
            t = dist[u] + nn - cust_p[u]
            if t < best:
                best = t
                best_customer = u
        if certified:
            (c_prunes,) = _PRUNE_COUNTERS.get()
            c_prunes.add()
        return best, best_customer

    # TAU_PRIME: min {dist + nn} - max potential over settled customers.
    tau_max = 0.0
    raw_best = INF
    for u in settled:
        if u >= m:
            continue
        tau_max = max(tau_max, cust_p[u])
        nn = state.next_candidate_distance(u)
        if nn == INF:
            continue
        t = dist[u] + nn
        if t < raw_best:
            raw_best = t
            best_customer = u
    if best_customer is None:
        return INF, None
    return raw_best - tau_max, best_customer


def _unreachable(customer: int) -> MatchingError:
    """The error for a customer no free facility can be reached from."""
    return MatchingError(
        f"customer {customer} cannot reach any facility with free capacity"
    )


def _reveal(state: BipartiteState, i: int) -> int:
    """Materialize customer ``i``'s next edge, whose distance was peeked finite."""
    (c_reveals,) = _REVEAL_COUNTERS.get()
    c_reveals.add()
    revealed = state.materialize_next(i)
    # The cursor peeked non-inf distance, so a facility must exist.
    assert revealed is not None
    if __debug__:
        w = state.edges[i][revealed]
        rc = (
            w
            - state.customer_potential[i]
            + state.facility_potential[revealed]
        )
        assert rc >= -1e-6, (
            f"negative reduced cost {rc} on revealed edge ({i}, {revealed})"
        )
    return revealed


def _match_first_reveal(
    state: BipartiteState, customer: int, rule: ThresholdRule
) -> int | None:
    """FindPair's first round for a customer without a residual out-arc.

    The residual search from such a customer settles it alone and finds
    no facility, so the stop rule reveals the customer's next edge, or
    raises :class:`MatchingError` when the customer's stream is
    exhausted.  The peeks are the stop rule's, in its order: under
    ``THEOREM1`` the lower bound, then the exact distance only when the
    bound is finite; under ``TAU_PRIME`` the exact distance.

    Under ``THEOREM1``, when the revealed facility ``j`` is not full, the
    next search would settle the customer and ``j`` at
    ``sp = 0.0 + (w - p_i + p_j)``, and the stop rule would read only the
    customer's lower bound.  When that bound certifies ``sp``, the unit
    is matched here, with the loop's counters and potential update.

    Returns ``j`` on a match, else ``None``: :func:`find_pair`'s general
    loop then runs from the current state, which after a reveal has seen
    only side-effect-free lower-bound reads.
    """
    edges = state.edges[customer]
    if len(edges) != len(state.matched[customer]):
        return None
    # Registered at zero, as the residual search this round skips does.
    _DIJKSTRA_COUNTERS.get()
    cursor = state.cursor(customer)
    theorem1 = rule is ThresholdRule.THEOREM1
    if (
        theorem1 and cursor.peek_lower_bound() == INF
    ) or cursor.peek_distance() == INF:
        raise _unreachable(customer)
    j = _reveal(state, customer)
    if not theorem1 or state.is_full(j):
        return None
    cust_p = state.customer_potential
    p_i = cust_p[customer]
    # The residual search's relaxation and the stop rule's term, bit for
    # bit (the customer's dist is 0.0).
    sp = 0.0 + (edges[j] - p_i + state.facility_potential[j])
    lb = cursor.peek_lower_bound()
    if lb != INF and sp > (0.0 + lb - p_i) + _EPS:
        return None
    # The checkpoint the second round's search makes, between the reveal
    # and the augmentation.
    _budget_checkpoint()
    (c_prunes,) = _PRUNE_COUNTERS.get()
    c_prunes.add()
    state.match(customer, j)
    c_augs, c_path_edges = _AUGMENT_COUNTERS.get()
    c_augs.add()
    c_path_edges.add(1)
    # Potential update: the customer gains sp - 0.0, the facility sp - sp.
    if sp > 0.0:
        cust_p[customer] += sp
    return j


def find_pair(
    state: BipartiteState,
    customer: int,
    rule: ThresholdRule = ThresholdRule.THEOREM1,
) -> int:
    """Match ``customer`` with one additional facility (Algorithm 2).

    Augments one unit of flow from ``customer`` to the nearest facility
    with residual capacity, possibly rewiring existing assignments along
    the augmenting path.  The returned value is the facility index the
    *net* new unit of capacity was consumed at (the endpoint of the
    augmenting path); the facility newly matched to ``customer`` may
    differ when rewiring occurred.

    A customer without a residual out-arc, whose first revealed edge
    the stop rule certifies, is matched without a residual search (see
    :func:`_match_first_reveal`); the result is the general loop's.

    Raises
    ------
    MatchingError
        When no facility with residual capacity is reachable from the
        customer, even after revealing every remaining candidate edge.
    """
    _budget_checkpoint()
    first = _match_first_reveal(state, customer, rule)
    if first is not None:
        return first
    m = state.m

    while True:
        # One residual Dijkstra per augmentation, and Theorem 1 bounds the
        # count; the O(settled) stop bound is dominated by the search.
        dist, parent, settled, target, sp_len = _residual_dijkstra(
            state, customer
        )
        bound, best_customer = _stop_bound(state, dist, settled, sp_len, rule)

        if target is not None and sp_len <= bound + _EPS:
            break
        if best_customer is None:
            if target is not None:
                # Nothing left to reveal; the found path is optimal.
                break
            raise _unreachable(customer)
        _reveal(state, best_customer)

    # ------------------------------------------------------------------
    # Flow augmentation: flip matched status along the path to `target`.
    # ------------------------------------------------------------------
    node = m + target
    path: list[int] = [node]
    while node != customer:
        node = parent[node]
        path.append(node)
    path.reverse()

    for u, v in zip(path, path[1:], strict=False):
        if u < m:
            state.match(u, v - m)
        else:
            state.unmatch(v, u - m)
    c_augs, c_path_edges = _AUGMENT_COUNTERS.get()
    c_augs.add()
    c_path_edges.add(len(path) - 1)

    # Potential update (Algorithm 2, line 17): settled nodes only.
    for u in settled:
        delta = sp_len - dist[u]
        if delta <= 0.0:
            continue
        if u < m:
            state.customer_potential[u] += delta
        else:
            state.facility_potential[u - m] += delta
    return target


def rebuild_rows(
    state: BipartiteState,
    rows: Sequence[int],
    rule: ThresholdRule = ThresholdRule.THEOREM1,
) -> None:
    """Match each (currently unmatched) row of ``rows`` in order.

    The shared primitive behind :func:`assign_all` and the serving
    layer's scoped re-solves: running ``find_pair`` over unmatched rows
    in ascending row order is exactly the state evolution a cold
    ``assign_all`` performs, which is what makes warm incremental
    results bit-identical to cold ones.  Budget-checkpointed between
    augmentations.
    """
    for i in rows:
        _budget_checkpoint()
        find_pair(state, i, rule)


def assign_all(
    network: Network,
    customer_nodes: Sequence[int],
    facility_nodes: Sequence[int],
    capacities: Sequence[int],
    *,
    pool: StreamPool | None = None,
    rule: ThresholdRule = ThresholdRule.THEOREM1,
) -> AssignmentResult:
    """Optimally assign every customer to one facility of a fixed set.

    This is the SIA-style bipartite assignment the paper uses as the final
    phase of WMA (Lines 14-15 of Algorithm 1) and as the assignment step
    of the Hilbert and BRNN baselines: a min-cost flow sending one unit
    per customer into facilities bounded by their capacities, computed by
    successive shortest-path augmentations.  The result is a *provably
    optimal* transportation plan for the given facility set.

    Raises
    ------
    MatchingError
        When capacities or connectivity make the assignment infeasible.
    """
    state = BipartiteState(
        network, customer_nodes, facility_nodes, capacities, pool=pool
    )
    rebuild_rows(state, range(state.m), rule)

    assignment: list[int] = [-1] * state.m
    for i in range(state.m):
        (j,) = state.matched[i]
        assignment[i] = j
    return AssignmentResult(
        assignment=assignment, cost=state.total_cost(), state=state
    )
