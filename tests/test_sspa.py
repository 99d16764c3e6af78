"""Tests for the SSPA matcher: optimality, rewiring, pruning thresholds."""

from __future__ import annotations

import copy
import heapq
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro import solve
from repro.core.instance import MCFSInstance
from repro.core.wma import WMASolver
from repro.datagen.instances import clustered_instance, uniform_instance
from repro.errors import GraphError, MatchingError
from repro.flow import sspa
from repro.flow.bipartite import BipartiteState
from repro.flow.sspa import ThresholdRule, assign_all, find_pair
from repro.network.dijkstra import distance_matrix
from repro.network.graph import Network
from repro.runtime.options import SolverOptions
from repro.serve import ServeEngine, synthesize_trace
from tests.conftest import (
    build_line_network,
    build_random_network,
    build_two_component_network,
)


def hungarian_reference(network, customers, facilities, capacities) -> float:
    """Optimal assignment cost by capacity expansion + Hungarian."""
    if sum(capacities) < len(customers):
        # Rectangular LSA would silently drop customers.
        return float("inf")
    mat = distance_matrix(network, customers, facilities)
    cols = []
    for j, cap in enumerate(capacities):
        for _ in range(cap):
            cols.append(mat[:, j])
    expanded = np.array(cols).T
    big = 1e9
    filled = np.where(np.isfinite(expanded), expanded, big)
    rows, col_idx = linear_sum_assignment(filled)
    total = filled[rows, col_idx].sum()
    return float(total) if total < big / 2 else float("inf")


class TestAssignAll:
    def test_simple_line(self):
        g = build_line_network(10)
        result = assign_all(g, [1, 8], [0, 9], [1, 1])
        assert result.cost == pytest.approx(2.0)
        assert result.assignment == [0, 1]

    def test_capacity_forces_split(self):
        g = build_line_network(10)
        # Both customers closest to facility 0, but it can take only one.
        result = assign_all(g, [1, 2], [0, 9], [1, 5])
        assert sorted(result.assignment) == [0, 1]
        assert result.cost == pytest.approx(min(1 + 7, 2 + 8))

    def test_matches_hungarian_on_random_instances(self):
        for seed in range(20):
            g = build_random_network(35, seed=seed)
            rng = np.random.default_rng(seed + 99)
            customers = [int(v) for v in rng.choice(35, size=7, replace=True)]
            facilities = sorted(
                int(v) for v in rng.choice(35, size=9, replace=False)
            )
            capacities = [int(c) for c in rng.integers(1, 4, size=9)]
            ref = hungarian_reference(g, customers, facilities, capacities)
            if np.isinf(ref):
                with pytest.raises(MatchingError):
                    assign_all(g, customers, facilities, capacities)
                continue
            result = assign_all(g, customers, facilities, capacities)
            assert result.cost == pytest.approx(ref, rel=1e-9)

    def test_infeasible_capacity_raises(self):
        g = build_line_network(5)
        with pytest.raises(MatchingError):
            assign_all(g, [0, 1, 2], [4], [2])

    def test_unreachable_customer_raises(self):
        g = build_two_component_network()
        with pytest.raises(MatchingError):
            assign_all(g, [0, 3], [1], [5])

    @pytest.mark.parametrize("bad", [9, -1])
    def test_facility_outside_network_raises(self, bad):
        g = build_line_network(4)
        with pytest.raises(GraphError, match=f"node {bad} outside 0..3"):
            assign_all(g, [0, 1], [bad, 3], [1, 1])

    def test_colocated_customer_and_facility(self):
        g = build_line_network(5)
        result = assign_all(g, [2], [2], [1])
        assert result.cost == pytest.approx(0.0)

    def test_duplicate_customers_share_stream(self):
        g = build_line_network(10)
        result = assign_all(g, [5, 5, 5], [4, 6, 0], [1, 1, 1])
        assert result.cost == pytest.approx(1 + 1 + 5)
        assert sorted(result.assignment) == [0, 1, 2]


class TestRewiring:
    def test_rewiring_beats_greedy(self):
        """The Section IV-B phenomenon: SSPA rewires, greedy does not.

        Customer A sits near facility X; customer B can reach X cheaply
        but its alternative is expensive, while A has a cheap alternative
        Y.  Greedy (A first) locks X and forces B onto the expensive
        path; SSPA reassigns A to Y.
        """
        #    X --1-- A --1.5-- Y
        #    |
        #    2
        #    |
        #    B --10-- Z(unused)
        coords = np.zeros((5, 2))
        g = Network(
            5,
            [
                (0, 1, 1.0),   # X - A
                (1, 2, 1.5),   # A - Y
                (0, 3, 2.0),   # X - B
                (3, 4, 10.0),  # B - Z
            ],
            coords=coords,
        )
        customers = [1, 3]  # A, B
        facilities = [0, 2]  # X, Y (Z intentionally not a candidate)
        result = assign_all(g, customers, facilities, [1, 1])
        # Optimal: A -> Y (1.5), B -> X (2.0).
        assert result.cost == pytest.approx(3.5)
        assert result.assignment == [1, 0]

    def test_incremental_order_independent(self):
        """Total cost equals Hungarian no matter the customer order."""
        g = build_random_network(30, seed=3)
        customers = [0, 5, 9, 14, 20]
        facilities = [2, 11, 25]
        capacities = [2, 2, 2]
        ref = hungarian_reference(g, customers, facilities, capacities)
        for perm_seed in range(5):
            rng = np.random.default_rng(perm_seed)
            order = rng.permutation(len(customers))
            state = BipartiteState(
                g,
                [customers[i] for i in order],
                facilities,
                capacities,
            )
            for i in range(state.m):
                find_pair(state, i)
            assert state.total_cost() == pytest.approx(ref, rel=1e-9)


class TestFindPair:
    def test_demand_two_distinct_facilities(self):
        g = build_line_network(10)
        state = BipartiteState(g, [5], [4, 6, 0], [1, 1, 1])
        find_pair(state, 0)
        find_pair(state, 0)
        assert state.assignment_count(0) == 2
        nodes = sorted(state.facility_nodes[j] for j in state.matched[0])
        assert nodes == [4, 6]

    def test_find_pair_raises_when_exhausted(self):
        g = build_line_network(10)
        state = BipartiteState(g, [5], [4], [1])
        find_pair(state, 0)
        with pytest.raises(MatchingError):
            find_pair(state, 0)

    def test_potentials_stay_nonnegative(self):
        g = build_random_network(30, seed=8)
        state = BipartiteState(
            g, [0, 4, 9, 13], [3, 17, 26], [2, 1, 1]
        )
        for i in range(4):
            find_pair(state, i)
            assert all(p >= -1e-9 for p in state.customer_potential)
            assert all(p >= -1e-9 for p in state.facility_potential)

    def test_lazy_materialization_prunes(self):
        """Far facilities should not be revealed when near ones suffice."""
        g = build_line_network(100)
        facilities = list(range(0, 100, 10))
        state = BipartiteState(g, [0], facilities, [1] * len(facilities))
        find_pair(state, 0)
        # Customer 0 matches its collocated facility; the pruning bound
        # must avoid revealing the whole candidate set.
        assert state.edges_materialized <= 3


class TestThresholdRules:
    def test_both_rules_reach_optimal_cost(self):
        for seed in range(10):
            g = build_random_network(30, seed=seed)
            rng = np.random.default_rng(seed)
            customers = [int(v) for v in rng.choice(30, size=6, replace=True)]
            facilities = sorted(
                int(v) for v in rng.choice(30, size=8, replace=False)
            )
            capacities = [int(c) for c in rng.integers(1, 4, size=8)]
            try:
                r1 = assign_all(
                    g, customers, facilities, capacities,
                    rule=ThresholdRule.THEOREM1,
                )
            except MatchingError:
                with pytest.raises(MatchingError):
                    assign_all(
                        g, customers, facilities, capacities,
                        rule=ThresholdRule.TAU_PRIME,
                    )
                continue
            r2 = assign_all(
                g, customers, facilities, capacities,
                rule=ThresholdRule.TAU_PRIME,
            )
            assert r1.cost == pytest.approx(r2.cost, rel=1e-9)

    def test_tau_prime_reveals_at_least_as_many_edges(self):
        """Theorem 1's tighter bound never reveals more edges (Section V)."""
        feasible = 0
        for seed in range(12):
            g = build_random_network(40, seed=seed)
            rng = np.random.default_rng(seed + 5)
            customers = [int(v) for v in rng.choice(40, size=8, replace=True)]
            facilities = sorted(
                int(v) for v in rng.choice(40, size=12, replace=False)
            )
            capacities = [2] * 12
            try:
                r1 = assign_all(
                    g, customers, facilities, capacities,
                    rule=ThresholdRule.THEOREM1,
                )
                r2 = assign_all(
                    g, customers, facilities, capacities,
                    rule=ThresholdRule.TAU_PRIME,
                )
            except MatchingError:
                continue  # disconnected draw; direction check needs success
            feasible += 1
            assert (
                r1.state.edges_materialized <= r2.state.edges_materialized
            )
        assert feasible >= 8


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(2, 8),
    l=st.integers(2, 8),
)
def test_property_sspa_matches_hungarian(seed, m, l):
    """assign_all is optimal on arbitrary feasible random instances."""
    g = build_random_network(25, seed=seed % 40)
    rng = np.random.default_rng(seed)
    customers = [int(v) for v in rng.choice(25, size=m, replace=True)]
    facilities = sorted(int(v) for v in rng.choice(25, size=l, replace=False))
    capacities = [int(c) for c in rng.integers(1, 4, size=l)]
    ref = hungarian_reference(g, customers, facilities, capacities)
    if np.isinf(ref):
        with pytest.raises(MatchingError):
            assign_all(g, customers, facilities, capacities)
    else:
        result = assign_all(g, customers, facilities, capacities)
        assert result.cost == pytest.approx(ref, rel=1e-9)


def reference_residual_dijkstra(state, source):
    """The residual heap search, without its counters.

    The reference that :func:`repro.flow.sspa._residual_dijkstra` must
    equal exactly, including on the searches it answers without a heap.
    Read-only: it never touches ``state``.
    """
    m = state.m
    cust_p = state.customer_potential
    fac_p = state.facility_potential
    edges = state.edges
    matched = state.matched
    assigned = state.assigned

    dist = {source: 0.0}
    parent = {}
    settled = []
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        settled.append(u)
        if u >= m:
            j = u - m
            if not state.is_full(j):
                return dist, parent, settled, j, d
            pj = fac_p[j]
            for i2 in assigned[j]:
                rc = -edges[i2][j] - pj + cust_p[i2]
                nd = d + rc
                if nd < dist.get(i2, math.inf) - 1e-9:
                    dist[i2] = nd
                    parent[i2] = u
                    heapq.heappush(heap, (nd, i2))
        else:
            pi = cust_p[u]
            has = matched[u]
            for j2, w in edges[u].items():
                if j2 in has:
                    continue
                rc = w - pi + fac_p[j2]
                nd = d + rc
                v = m + j2
                if nd < dist.get(v, math.inf) - 1e-9:
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
    return dist, parent, settled, None, math.inf


def _search_shape(state, source) -> str:
    """Which residual out-arcs the source has: the heap-free cases first."""
    arcs = [j for j in state.edges[source] if j not in state.matched[source]]
    if not arcs:
        return "no arc"
    if len(arcs) == 1:
        return "one arc, full" if state.is_full(arcs[0]) else "one arc, free"
    return "several arcs"


@pytest.fixture
def checked_searches(monkeypatch):
    """Check every residual search against the reference; count shapes."""
    shapes: Counter[str] = Counter()
    search = sspa._residual_dijkstra

    def checked(state, source):
        shape = _search_shape(state, source)
        shapes[shape] += 1
        expected = reference_residual_dijkstra(state, source)
        runs = state.dijkstra_runs
        got = search(state, source)
        assert got == expected, shape
        # Only heap searches count as Dijkstra runs.
        heap_free = shape == "one arc, free"
        assert state.dijkstra_runs == runs + (0 if heap_free else 1)
        return got

    monkeypatch.setattr(sspa, "_residual_dijkstra", checked)
    return shapes


def _directed_instance(seed: int) -> MCFSInstance:
    """A random network whose every edge has a costlier return arc."""
    base = build_random_network(60, seed=seed)
    rng = np.random.default_rng(seed)
    arcs = []
    for u, v, w in base.edges():
        arcs.append((u, v, w))
        arcs.append((v, u, w * float(rng.uniform(1.0, 3.0))))
    customers = [int(v) for v in rng.choice(60, size=24, replace=True)]
    facilities = sorted(int(v) for v in rng.choice(60, size=12, replace=False))
    return MCFSInstance(
        network=Network(60, arcs, directed=True),
        customers=tuple(customers),
        facility_nodes=tuple(facilities),
        capacities=(3,) * 12,
        k=10,
    )


def _tight_capacity_case() -> None:
    """40 customers into exactly 40 units of capacity, checked optimal.

    Late arrivals can only be served by rewiring through full facilities.
    """
    g = build_random_network(80, seed=4)
    rng = np.random.default_rng(4)
    customers = [int(v) for v in rng.choice(80, size=40, replace=True)]
    facilities = sorted(int(v) for v in rng.choice(80, size=10, replace=False))
    result = assign_all(g, customers, facilities, [4] * 10)
    assert result.cost == pytest.approx(
        hungarian_reference(g, customers, facilities, [4] * 10), rel=1e-9
    )


def _clustered_serve_replay(n_mutations: int) -> None:
    """A churn replay on ``clustered_instance(256)``, in batches of 64."""
    instance = clustered_instance(256, seed=0)
    selected = solve(instance, method="wma").selected
    mutations = synthesize_trace(
        instance.network,
        n_mutations,
        facility_nodes=[instance.facility_nodes[j] for j in selected],
        capacities=[int(instance.capacities[j]) for j in selected],
        start_handle=len(instance.customers),
        customer_nodes=[int(c) for c in instance.customers],
        seed=1,
        p_depart=0.45,
    )
    engine = ServeEngine(instance, selected)
    for start in range(0, len(mutations), 64):
        result = engine.apply(mutations[start:start + 64])
        assert result.staleness == "optimal"


class TestHeapFreeSearches:
    """Every residual search equals the heap search, shape by shape.

    ``find_pair`` answers a customer without a residual out-arc before
    any search (``TestFirstRevealPairs`` checks those calls), so no
    search starts from one.
    """

    def test_wma_uniform(self, checked_searches):
        WMASolver(uniform_instance(256)).solve()
        # Every first reveal is certified: no search runs at all.
        assert not checked_searches

    def test_wma_clustered(self, checked_searches):
        WMASolver(clustered_instance(256)).solve()
        assert not checked_searches

    def test_tight_capacity(self, checked_searches):
        _tight_capacity_case()
        assert checked_searches["no arc"] == 0
        assert checked_searches["one arc, full"] > 0
        assert checked_searches["several arcs"] > 0

    def test_directed_network(self, checked_searches):
        solve(_directed_instance(3), method="wma")
        assert set(checked_searches) == {"one arc, full", "several arcs"}

    def test_clustered_serve_replay(self, checked_searches):
        _clustered_serve_replay(2000)
        assert set(checked_searches) == {
            "one arc, free", "one arc, full", "several arcs"
        }


def _row_state(state: BipartiteState) -> tuple:
    """Everything a ``find_pair`` call can change, in comparable form."""
    return (
        # Insertion order too: the residual search relaxes in it.
        [list(row.items()) for row in state.edges],
        state.matched,
        state.assigned,
        state.customer_potential,
        state.facility_potential,
        [state.cursor_rank(i) for i in range(state.m)],
    )


def _twin(state: BipartiteState) -> BipartiteState:
    """A deep copy of ``state`` that shares its network, pool and streams.

    Streams are append-only logs that cursors read at private ranks, so
    the copy reads them as a co-located customer would.  Copying them
    as well would cost more than the call under test.
    """
    pool = state.pool
    memo = {id(state.network): state.network, id(pool): pool}
    memo.update((id(s), s) for s in pool._streams.values())
    return copy.deepcopy(state, memo)


@pytest.fixture
def checked_pairs(monkeypatch):
    """Check every ``find_pair`` call against the general loop alone.

    Each call first runs as the solver makes it.  A copy of the state
    taken before the call then runs it again with
    ``_match_first_reveal`` bypassed, so that the residual-search loop
    does all of the work.  The return value or exception type, the
    edges, the matching, both potential lists and the cursor ranks must
    agree.  Running the copy second lets the call under test see the
    streams exactly as the solver left them.

    Counts how each call went, per rule: ``"arcs"`` when the customer
    had a residual out-arc (not eligible), and else ``"matched"`` (the
    first reveal was certified), ``"loop"`` (the loop took over after
    the reveal) or ``"exhausted"`` (no edge left to reveal).
    """
    outcomes: dict[ThresholdRule, Counter[str]] = {
        rule: Counter() for rule in ThresholdRule
    }
    real_find_pair = sspa.find_pair
    first_reveal = sspa._match_first_reveal
    last: list[int | None] = [None]

    def recorded(state, customer, rule):
        last[0] = first_reveal(state, customer, rule)
        return last[0]

    def checked(state, customer, rule=ThresholdRule.THEOREM1):
        twin = _twin(state)
        eligible = len(state.edges[customer]) == len(state.matched[customer])
        error = None
        try:
            got = real_find_pair(state, customer, rule)
        except MatchingError as exc:
            got, error = MatchingError, exc
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sspa, "_match_first_reveal", lambda *args: None)
            try:
                want = real_find_pair(twin, customer, rule)
            except MatchingError:
                want = MatchingError
        assert got == want
        assert _row_state(state) == _row_state(twin)
        if not eligible:
            outcome = "arcs"
        elif error is not None:
            outcome = "exhausted"
        else:
            outcome = "loop" if last[0] is None else "matched"
        outcomes[rule][outcome] += 1
        if error is not None:
            raise error
        return got

    monkeypatch.setattr(sspa, "_match_first_reveal", recorded)
    # Every module that binds find_pair by name.
    for module in ("repro.flow.sspa", "repro.core.wma", "repro.serve.engine"):
        monkeypatch.setattr(f"{module}.find_pair", checked)
    return outcomes


class TestFirstRevealPairs:
    """``find_pair`` with its first-reveal step equals the general loop.

    The WMA cases go through :func:`repro.solve`, so an oracle scope set
    by ``REPRO_ORACLE`` covers their CH streams too.
    """

    def test_wma_uniform(self, checked_pairs):
        solve(uniform_instance(256), method="wma")
        # Every call's first reveal is certified.
        assert set(checked_pairs[ThresholdRule.THEOREM1]) == {"matched"}

    def test_wma_clustered(self, checked_pairs):
        solve(clustered_instance(256), method="wma")
        theorem1 = checked_pairs[ThresholdRule.THEOREM1]
        assert theorem1["matched"] > 0
        assert theorem1["exhausted"] > 0

    def test_directed_network(self, checked_pairs):
        solve(_directed_instance(3), method="wma")
        theorem1 = checked_pairs[ThresholdRule.THEOREM1]
        assert theorem1["matched"] > 0
        assert theorem1["loop"] > 0

    def test_tau_prime(self, checked_pairs):
        options = SolverOptions(
            extras={"threshold_rule": ThresholdRule.TAU_PRIME}
        )
        solve(clustered_instance(256), method="wma", options=options)
        tau_prime = checked_pairs[ThresholdRule.TAU_PRIME]
        # Only THEOREM1 matches at the first reveal; the final
        # assignment runs under it.
        assert tau_prime["matched"] == 0
        assert tau_prime["loop"] > 0
        assert tau_prime["exhausted"] > 0

    def test_tight_capacity(self, checked_pairs):
        _tight_capacity_case()
        theorem1 = checked_pairs[ThresholdRule.THEOREM1]
        assert theorem1["matched"] > 0
        assert theorem1["loop"] > 0

    def test_clustered_serve_replay(self, checked_pairs):
        _clustered_serve_replay(1000)
        theorem1 = checked_pairs[ThresholdRule.THEOREM1]
        assert theorem1["matched"] > 0
        assert theorem1["loop"] > 0
