"""Tests for the bipartite matching state."""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceeded, GraphError
from repro.flow.bipartite import BipartiteState, _FilteredCursor
from repro.network.ch import CHFacilityStream, ContractionHierarchy
from repro.network.incremental import (
    NearestFacilityStream,
    StreamCursor,
    StreamPool,
)
from repro.runtime import budget
from tests.conftest import build_line_network, build_random_network

_RESUME_NETWORK = build_random_network(40, seed=5)
_RESUME_FACILITIES = list(range(0, 40, 3))


def make_stream(kind):
    """A fresh stream of ``kind`` from node 7 (own oracle: no warm memos)."""
    network = _RESUME_NETWORK
    if kind == "kernel":
        return NearestFacilityStream(network, 7, _RESUME_FACILITIES)
    hierarchy = ContractionHierarchy.build(network)
    return CHFacilityStream(hierarchy, 7, _RESUME_FACILITIES)


class _CheckpointMeter(budget.Budget):
    """A budget that never expires and counts its deadline checks."""

    def __init__(self) -> None:
        super().__init__(1e9)
        self.checks = 0

    def check(self) -> None:
        self.checks += 1


class _ExpireAt(budget.Budget):
    """A budget whose ``k``-th deadline check raises."""

    def __init__(self, k: int) -> None:
        super().__init__(1e9)
        self.left = k

    def check(self) -> None:
        self.left -= 1
        if self.left == 0:
            raise BudgetExceeded("test budget expired")


def count_checkpoints(fn):
    """Run ``fn`` under a budget that never expires; return its checks."""
    meter = _CheckpointMeter()
    with budget.use(meter):
        fn()
    return meter.checks


def make_state(**kwargs):
    g = build_line_network(10)
    defaults = dict(
        network=g,
        customer_nodes=[1, 8],
        facility_nodes=[0, 5, 9],
        capacities=[1, 2, 1],
    )
    defaults.update(kwargs)
    return BipartiteState(**defaults)


class TestConstruction:
    def test_dimensions(self):
        state = make_state()
        assert state.m == 2
        assert state.l == 3
        assert state.edges_materialized == 0

    def test_misaligned_capacities_rejected(self):
        with pytest.raises(GraphError):
            make_state(capacities=[1])

    def test_duplicate_facilities_rejected(self):
        with pytest.raises(GraphError):
            make_state(facility_nodes=[0, 0, 9], capacities=[1, 1, 1])

    def test_shared_pool_must_cover_facilities(self):
        g = build_line_network(10)
        pool = StreamPool(g, [0, 5])
        with pytest.raises(GraphError, match="pool"):
            BipartiteState(g, [1], [9], [1], pool=pool)


class TestMaterialization:
    def test_edges_revealed_in_distance_order(self):
        state = make_state()
        j1 = state.materialize_next(0)
        j2 = state.materialize_next(0)
        j3 = state.materialize_next(0)
        # Customer at node 1: nearest facility node 0 (d=1), then 5 (d=4),
        # then 9 (d=8).
        assert [j1, j2, j3] == [0, 1, 2]
        assert state.edges[0][0] == pytest.approx(1.0)
        assert state.edges[0][1] == pytest.approx(4.0)
        assert state.materialize_next(0) is None
        assert state.edges_materialized == 3

    def test_next_candidate_distance(self):
        state = make_state()
        assert state.next_candidate_distance(0) == pytest.approx(1.0)
        state.materialize_next(0)
        assert state.next_candidate_distance(0) == pytest.approx(4.0)


class TestMatching:
    def test_match_unmatch_bookkeeping(self):
        state = make_state()
        state.materialize_next(0)
        state.match(0, 0)
        assert state.load(0) == 1
        assert state.assignment_count(0) == 1
        assert state.is_full(0)
        state.unmatch(0, 0)
        assert state.load(0) == 0
        assert not state.is_full(0)

    def test_match_requires_materialized_edge(self):
        state = make_state()
        with pytest.raises(GraphError, match="not materialized"):
            state.match(0, 2)

    def test_double_match_rejected(self):
        state = make_state()
        state.materialize_next(0)
        state.match(0, 0)
        with pytest.raises(GraphError, match="already"):
            state.match(0, 0)

    def test_unmatch_requires_flow(self):
        state = make_state()
        state.materialize_next(0)
        with pytest.raises(GraphError, match="no flow"):
            state.unmatch(0, 0)

    def test_total_cost_and_pairs(self):
        state = make_state()
        state.materialize_next(0)
        state.materialize_next(0)
        state.match(0, 0)
        state.match(0, 1)
        assert state.total_cost() == pytest.approx(5.0)
        pairs = sorted(state.matched_pairs())
        assert pairs == [(0, 0, 1.0), (0, 1, 4.0)]

    def test_coverage_sets_are_copies(self):
        state = make_state()
        state.materialize_next(0)
        state.match(0, 0)
        sigma = state.coverage_sets()
        sigma[0].clear()
        assert state.load(0) == 1


class TestFilteredCursor:
    def test_filter_skips_foreign_facilities(self):
        g = build_line_network(10)
        pool = StreamPool(g, [0, 5, 9])
        # Restricted state only knows facilities at 5 and 9.
        state = BipartiteState(g, [1], [5, 9], [1, 1], pool=pool)
        j = state.materialize_next(0)
        assert state.facility_nodes[j] == 5
        j = state.materialize_next(0)
        assert state.facility_nodes[j] == 9
        assert state.materialize_next(0) is None

    def test_filter_preserves_distances(self):
        g = build_line_network(10)
        pool = StreamPool(g, [0, 5, 9])
        state = BipartiteState(g, [1], [9], [1], pool=pool)
        assert state.next_candidate_distance(0) == pytest.approx(8.0)

    @pytest.mark.parametrize("kind", ["kernel", "ch"])
    def test_one_resume_matches_per_candidate_peeks(self, kind):
        order = StreamCursor(make_stream(kind)).drain()
        allowed = frozenset({order[6][0], order[9][0]})

        # Reference: peek/take every skipped candidate one at a time.
        reference = StreamCursor(make_stream(kind))

        def step_by_step():
            while reference.peek()[0] not in allowed:
                reference.take()

        stream = make_stream(kind)
        one_pass = _FilteredCursor(stream, allowed)
        ticks = count_checkpoints(step_by_step)
        assert count_checkpoints(one_pass.peek) == ticks
        assert one_pass.rank == reference.rank == 6
        assert one_pass.peek() == order[6]
        # Every passed candidate was still recorded for other cursors.
        assert stream.found == order[:7]
        assert one_pass.take() == order[6]
        assert one_pass.take() == order[9]
        assert one_pass.take() is None
        assert one_pass.rank == len(order)


class TestBudgetExpiryMidStream:
    @pytest.mark.parametrize("kind", ["kernel", "ch"])
    def test_stream_stays_whole_after_any_expiry(self, kind):
        # A deadline may expire at any checkpoint of a drain, including
        # inside an oracle stream's re-fold; a later drain of the same
        # stream (a serve batch after a shed one) must still emit the
        # full order.
        order = StreamCursor(make_stream(kind)).drain()
        drain = StreamCursor(make_stream(kind)).drain
        checks = count_checkpoints(drain)
        for k in range(1, checks + 1):
            stream = make_stream(kind)
            with pytest.raises(BudgetExceeded), budget.use(_ExpireAt(k)):
                StreamCursor(stream).drain()
            assert StreamCursor(stream).drain() == order, k
