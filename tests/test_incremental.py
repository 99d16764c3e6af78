"""Tests for resumable nearest-facility streams."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.network.dijkstra import distance_matrix
from repro.network.incremental import NearestFacilityStream, StreamCursor, StreamPool
from repro.obs import metrics
from tests.conftest import (
    build_line_network,
    build_random_network,
    build_two_component_network,
    reference_dijkstra,
)


class TestStream:
    def test_yields_in_distance_order(self):
        g = build_line_network(10)
        stream = NearestFacilityStream(g, 5, [0, 2, 7, 9])
        found = [stream.facility_at(r) for r in range(4)]
        dists = [d for _, d in found]
        assert dists == sorted(dists)
        assert found[0] == (7, pytest.approx(2.0))

    def test_matches_distance_matrix_order(self):
        g = build_random_network(40, seed=4)
        facilities = [3, 8, 15, 22, 30, 37]
        stream = NearestFacilityStream(g, 0, facilities)
        mat = distance_matrix(g, [0], facilities)[0]
        expected = sorted(
            zip(facilities, mat, strict=True), key=lambda p: (p[1], p[0])
        )
        for rank, (node, dist) in enumerate(expected):
            got = stream.facility_at(rank)
            assert got is not None
            assert got[1] == pytest.approx(dist)

    def test_exhaustion_returns_none(self):
        g = build_line_network(5)
        stream = NearestFacilityStream(g, 0, [2])
        assert stream.facility_at(0) is not None
        assert stream.facility_at(1) is None
        assert stream.distance_at(1) == math.inf

    def test_unreachable_facilities_not_yielded(self):
        g = build_two_component_network()
        stream = NearestFacilityStream(g, 0, [1, 4])
        assert stream.facility_at(0) == (1, pytest.approx(1.0))
        assert stream.facility_at(1) is None

    def test_source_is_facility(self):
        g = build_line_network(5)
        stream = NearestFacilityStream(g, 2, [2, 4])
        assert stream.facility_at(0) == (2, 0.0)

    @pytest.mark.parametrize("bad", [9, -1])
    def test_rejects_facility_outside_network(self, bad):
        with pytest.raises(GraphError, match=f"node {bad} outside 0..3"):
            NearestFacilityStream(build_line_network(4), 0, [bad, 3])

    def test_random_access_is_stable(self):
        g = build_random_network(30, seed=6)
        facilities = list(range(0, 30, 3))
        stream = NearestFacilityStream(g, 1, facilities)
        fifth = stream.facility_at(5)
        first = stream.facility_at(0)
        assert stream.facility_at(5) == fifth
        assert stream.facility_at(0) == first


class TestCursor:
    def test_take_advances_peek_does_not(self):
        g = build_line_network(10)
        cursor = StreamCursor(NearestFacilityStream(g, 0, [2, 5, 8]))
        assert cursor.peek() == (2, pytest.approx(2.0))
        assert cursor.peek() == (2, pytest.approx(2.0))
        assert cursor.take() == (2, pytest.approx(2.0))
        assert cursor.peek() == (5, pytest.approx(5.0))
        assert cursor.rank == 1

    def test_peek_distance_inf_after_exhaustion(self):
        g = build_line_network(4)
        cursor = StreamCursor(NearestFacilityStream(g, 0, [1]))
        cursor.take()
        assert cursor.exhausted
        assert cursor.peek_distance() == math.inf
        assert cursor.take() is None

    def test_drain(self):
        g = build_line_network(10)
        cursor = StreamCursor(NearestFacilityStream(g, 0, [2, 5, 8]))
        assert [n for n, _ in cursor.drain()] == [2, 5, 8]

    def test_drain_limit(self):
        g = build_line_network(10)
        cursor = StreamCursor(NearestFacilityStream(g, 0, [2, 5, 8]))
        assert len(cursor.drain(limit=2)) == 2
        assert cursor.rank == 2

    def test_shared_stream_independent_cursors(self):
        g = build_line_network(10)
        pool = StreamPool(g, [2, 5, 8])
        c1 = pool.cursor_for(0)
        c2 = pool.cursor_for(0)
        assert c1.take() == (2, pytest.approx(2.0))
        assert c1.take() == (5, pytest.approx(5.0))
        # The second cursor still starts from the beginning.
        assert c2.take() == (2, pytest.approx(2.0))
        # And they share one underlying stream object.
        assert len(pool) == 1


class TestPool:
    def test_streams_cached_per_node(self):
        g = build_line_network(10)
        pool = StreamPool(g, [5])
        s1 = pool.stream_for(0)
        s2 = pool.stream_for(0)
        s3 = pool.stream_for(1)
        assert s1 is s2
        assert s1 is not s3
        assert len(pool) == 2

    def test_facility_nodes_exposed(self):
        g = build_line_network(10)
        pool = StreamPool(g, [5, 7])
        assert pool.facility_nodes == (5, 7)

    @pytest.mark.parametrize("bad", [9, -1])
    def test_rejects_facility_outside_network(self, bad):
        with pytest.raises(GraphError, match=f"node {bad} outside 0..3"):
            StreamPool(build_line_network(4), [bad, 3])

    def test_interleaved_cursors_bounded_by_full_dijkstras(self):
        # The whole point of sharing streams: however many cursors
        # interleave over however many ranks, the pool never does more
        # heap pops in total than one *full* Dijkstra per distinct
        # source would.
        g = build_random_network(40, seed=9)
        facilities = list(range(0, 40, 4))
        sources = [1, 7, 19]

        reg = metrics.Registry()
        with metrics.use(reg):
            pool = StreamPool(g, facilities)
            cursors = [pool.cursor_for(s) for s in sources]
            cursors += [pool.cursor_for(s) for s in sources]  # duplicates
            exhausted = False
            while not exhausted:
                exhausted = True
                for cursor in cursors:
                    if cursor.take() is not None:
                        exhausted = False
        stream_pops = reg.as_dict().get("incremental.pops", 0)

        full_reg = metrics.Registry()
        with metrics.use(full_reg):
            for s in sources:
                reference_dijkstra(g, [s])
        full_pops = full_reg.as_dict()["dijkstra.pops"]

        assert stream_pops <= full_pops


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), source=st.integers(0, 29))
def test_property_stream_order_equals_sorted_distances(seed, source):
    """Stream yields exactly the reachable facilities, sorted by distance."""
    g = build_random_network(30, seed=seed % 20)
    rng = np.random.default_rng(seed)
    facilities = sorted(int(v) for v in rng.choice(30, size=8, replace=False))
    stream = NearestFacilityStream(g, source, facilities)
    got = []
    rank = 0
    while True:
        item = stream.facility_at(rank)
        if item is None:
            break
        got.append(item)
        rank += 1
    mat = distance_matrix(g, [source], facilities)[0]
    reachable = [
        (facilities[j], mat[j]) for j in range(len(facilities)) if np.isfinite(mat[j])
    ]
    assert len(got) == len(reachable)
    got_dists = [d for _, d in got]
    assert got_dists == sorted(got_dists)
    assert sorted(n for n, _ in got) == sorted(n for n, _ in reachable)
    for node, dist in got:
        ref = mat[facilities.index(node)]
        assert abs(dist - ref) < 1e-9
