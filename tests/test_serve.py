"""Tests for the online serving engine (:mod:`repro.serve`).

Covers the typed-mutation vocabulary and trace I/O, admission control,
the fingerprint-keyed solution cache, and the engine itself: warm
incremental arrivals, departures that keep the cold replay or re-solve
their component, compaction of departed rows, capacity re-rates, edge
retimes with global re-solve, deadlines, and the staleness contract --
each checked against a cold ``assign_all`` oracle for bit-identical
cost, plus a seeded differential churn replay on tie-heavy networks.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.instance import MCFSInstance
from repro.datagen.urban import grid_city
from repro.errors import InvalidInstanceError
from repro.flow.bipartite import BipartiteState
from repro.flow.sspa import assign_all
from repro.network import oracle as oracle_mod
from repro.network.ch import CHFacilityStream, ContractionHierarchy
from repro.network.graph import Network
from repro.obs import metrics
from repro.serve import (
    AdmissionController,
    CapacityChange,
    CustomerArrive,
    CustomerDepart,
    EdgeRetime,
    Mutation,
    ServeEngine,
    Snapshot,
    SolutionCache,
    load_trace,
    mutation_kind,
    save_trace,
    state_digest,
    synthesize_trace,
)
from tests.conftest import (
    build_grid_network,
    build_line_network,
    build_two_component_network,
)

GRID = build_grid_network(5, 5)


def grid_instance(customers=(6, 18), capacities=(3, 3, 3)) -> MCFSInstance:
    return MCFSInstance(
        network=GRID,
        customers=customers,
        facility_nodes=(0, 12, 24),
        capacities=capacities,
        k=3,
    )


def path_engine(n: int, capacities, customers) -> ServeEngine:
    """An engine on a path of ``n`` unit edges, facilities at both ends."""
    inst = MCFSInstance(
        network=build_line_network(n),
        customers=customers,
        facility_nodes=(0, n - 1),
        capacities=capacities,
        k=2,
    )
    return ServeEngine(inst, [0, 1])


def cold_cost(engine: ServeEngine) -> float:
    """A cold re-solve of the engine's current end state."""
    nodes = engine.customer_nodes()
    if not nodes:
        return 0.0
    return assign_all(
        engine.network,
        nodes,
        list(engine.selected_nodes),
        list(engine.selected_capacities),
    ).cost


def cold_assignment(engine: ServeEngine, selected: list[int]) -> dict[int, int]:
    """Handle -> facility of a cold re-solve, as ``engine.assignment()``.

    ``selected`` is the selection the engine was built with.
    """
    cold = assign_all(
        engine.network,
        engine.customer_nodes(),
        list(engine.selected_nodes),
        list(engine.selected_capacities),
    )
    return {
        h: selected[j]
        for h, j in zip(engine.handles(), cold.assignment, strict=True)
    }


class TestMutations:
    def test_kind_tags(self):
        assert mutation_kind(CustomerArrive(3)) == "arrive"
        assert mutation_kind(CustomerDepart(0)) == "depart"
        assert mutation_kind(CapacityChange(5, 2)) == "capacity"
        assert mutation_kind(EdgeRetime(0, 1, 2.0)) == "retime"

    def test_trace_round_trip(self, tmp_path):
        mutations = [
            CustomerArrive(7),
            CustomerDepart(0),
            CapacityChange(12, 4),
            EdgeRetime(0, 1, 2.5),
        ]
        path = str(tmp_path / "trace.jsonl")
        assert save_trace(path, mutations) == 4
        assert load_trace(path) == mutations

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "teleport", "node": 3}\n')
        with pytest.raises(InvalidInstanceError, match="unknown mutation kind"):
            load_trace(str(path))

    def test_load_rejects_bad_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "arrive", "nod": 3}\n')
        with pytest.raises(InvalidInstanceError, match="bad 'arrive'"):
            load_trace(str(path))

    def test_synthesize_is_deterministic(self):
        kwargs = dict(facility_nodes=[0, 24], capacities=[3, 3], seed=9)
        assert synthesize_trace(GRID, 50, **kwargs) == synthesize_trace(
            GRID, 50, **kwargs
        )

    def test_synthesized_trace_never_rejects(self):
        inst = grid_instance(customers=(6,), capacities=(2, 2, 2))
        trace = synthesize_trace(
            GRID,
            300,
            facility_nodes=[0, 12, 24],
            capacities=[2, 2, 2],
            start_handle=1,
            customer_nodes=[6],
            seed=3,
            p_retime=0.05,
        )
        assert len(trace) == 300
        engine = ServeEngine(inst, [0, 1, 2])
        result = engine.apply(trace)
        assert result.rejected == 0
        assert result.shed == 0
        assert engine.cost == cold_cost(engine)


class TestAdmission:
    def test_unbounded_admits_everything(self):
        ctrl = AdmissionController()
        accepted, shed = ctrl.admit([CustomerArrive(i) for i in range(5)])
        assert len(accepted) == 5 and shed == []

    def test_bounded_sheds_suffix(self):
        ctrl = AdmissionController(max_batch=2)
        batch = [CustomerArrive(i) for i in range(5)]
        accepted, shed = ctrl.admit(batch)
        assert accepted == batch[:2]
        assert shed == batch[2:]
        assert ctrl.admitted_total == 2 and ctrl.shed_total == 3

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_batch=-1)


class TestCache:
    def test_digest_sensitivity(self):
        base = state_digest("fp", [0, 12], [3, 3], [6, 18])
        assert base == state_digest("fp", [0, 12], [3, 3], [6, 18])
        assert base != state_digest("fq", [0, 12], [3, 3], [6, 18])
        assert base != state_digest("fp", [0, 24], [3, 3], [6, 18])
        assert base != state_digest("fp", [0, 12], [3, 4], [6, 18])
        assert base != state_digest("fp", [0, 12], [3, 3], [18, 6])

    def test_lru_eviction(self):
        state = assign_all(GRID, [6], [0], [1]).state
        snap = Snapshot.capture(state)
        cache = SolutionCache(capacity=2)
        cache.put("a", snap)
        cache.put("b", snap)
        assert cache.get("a") is snap  # refreshes "a"
        cache.put("c", snap)  # evicts "b", the least recent
        assert cache.get("b") is None
        assert cache.get("a") is snap and cache.get("c") is snap
        assert len(cache) == 2

    def test_snapshot_restores_bit_identical_state(self):
        state = assign_all(GRID, [6, 18, 13], [0, 24], [2, 2]).state
        snap = Snapshot.capture(state)
        fresh = BipartiteState(GRID, [6, 18, 13], [0, 24], [2, 2])
        snap.restore(fresh)
        assert fresh.total_cost() == state.total_cost()
        assert fresh.matched == state.matched
        assert fresh.customer_potential == state.customer_potential
        assert list(fresh.facility_potential) == list(state.facility_potential)


class TestEngineArrivals:
    def test_seeded_engine_matches_cold_solve(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        assert engine.n_active == 2
        assert engine.staleness == "optimal"
        assert engine.cost == cold_cost(engine)

    def test_empty_selection_rejected(self):
        with pytest.raises(InvalidInstanceError):
            ServeEngine(grid_instance(), [])

    def test_arrivals_only_stream_is_incremental_and_exact(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2], seed_customers=False)
        registry = metrics.Registry()
        with metrics.use(registry):
            result = engine.apply([CustomerArrive(n) for n in (6, 18, 13, 2)])
        assert result.applied == 4
        assert result.staleness == "optimal"
        assert not result.global_repair and result.repaired_components == 0
        assert engine.cost == cold_cost(engine)
        # Warm arrivals never re-run the cold assignment machinery.
        assert registry.as_dict().get("dijkstra.runs", 0) == 0

    def test_arrival_beyond_capacity_rejects_and_rolls_back(self):
        inst = MCFSInstance(
            network=build_line_network(6),
            customers=(0, 1),
            facility_nodes=(2,),
            capacities=(2,),
            k=1,
        )
        engine = ServeEngine(inst, [0])
        result = engine.apply([CustomerArrive(3)])
        assert result.rejected == 1
        assert engine.n_active == 2
        assert engine.staleness == "optimal"
        assert engine.cost == cold_cost(engine)

    def test_rejected_arrival_reveals_nothing(self):
        # Both facilities are full, so the arrival is rejected before any
        # search: the rows keep their single edges, the cold replay's.
        engine = path_engine(6, (1, 1), (1, 4))
        result = engine.apply([CustomerArrive(2)])
        assert result.rejected == 1
        assert result.staleness == "optimal"
        rows = [engine._row_of_handle[h] for h in engine.handles()]
        assert [list(engine._state.edges[r]) for r in rows] == [[0], [1]]
        assert engine.cost == cold_cost(engine) == 2.0
        TestServeMatchesColdReplay.assert_cold_replay(engine, [0, 1])

    def test_arrival_outside_network_rejected(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        outcome = engine.apply([CustomerArrive(99)]).outcomes[0]
        assert outcome.status == "rejected"
        assert "outside network" in outcome.detail

    def test_handles_are_sequential_and_queryable(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        result = engine.apply([CustomerArrive(13)])
        handle = result.outcomes[0].handle
        assert handle == 2  # two seed customers came first
        assert engine.node_of(handle) == 13
        assert engine.handles() == [0, 1, 2]
        assert engine.customer_nodes() == [6, 18, 13]
        assert set(engine.assignment()) == {0, 1, 2}

    def test_load_and_residual(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        assert sum(engine.load_per_facility().values()) == 2
        assert engine.residual_capacity() == 9 - 2
        engine.apply([CustomerArrive(13)])
        assert sum(engine.load_per_facility().values()) == 3
        assert engine.residual_capacity() == 9 - 3

    def test_arrival_rewires_an_earlier_customer(self):
        # The newcomer lands on the capacity-1 facility at node 5 held by
        # the customer at node 6.  Optimal: the newcomer takes it (cost 0)
        # and the earlier customer moves to node 10 (cost 4), beating the
        # unchanged assignment plus the newcomer at node 10 (1 + 5).
        inst = MCFSInstance(
            network=build_line_network(12),
            customers=(6,),
            facility_nodes=(5, 10),
            capacities=(1, 1),
            k=2,
        )
        engine = ServeEngine(inst, [0, 1])
        assert engine.facility_of(0) == 0
        result = engine.apply([CustomerArrive(5)])
        assert result.moves == 1
        assert result.repaired_components == 0
        assert engine.facility_of(0) == 1
        assert engine.cost == pytest.approx(4.0)
        assert engine.cost == cold_cost(engine)


class TestEngineDepartures:
    def test_departure_repairs_component_scoped(self):
        # Two customers compete for one seat at the good facility; when
        # the winner leaves, the loser must move into the freed seat.
        inst = MCFSInstance(
            network=build_line_network(12),
            customers=(5, 4),
            facility_nodes=(5, 9),
            capacities=(1, 5),
            k=2,
        )
        engine = ServeEngine(inst, [0, 1])
        assert engine.cost == pytest.approx(5.0)
        result = engine.apply([CustomerDepart(0)])
        assert result.applied == 1
        assert result.repaired_components == 1
        assert result.moves == 1
        assert engine.cost == pytest.approx(1.0)
        assert engine.cost == cold_cost(engine)

    def test_departure_transplants_other_components(self):
        # One customer per triangle: the departure dirties one component
        # and the other component's matched row is transplanted warm.
        inst = MCFSInstance(
            network=build_two_component_network(),
            customers=(0, 3),
            facility_nodes=(1, 4),
            capacities=(1, 1),
            k=2,
        )
        engine = ServeEngine(inst, [0, 1])
        result = engine.apply([CustomerDepart(0)])
        assert result.applied == 1
        assert result.staleness == "optimal"
        assert result.repaired_components == 1
        assert engine.cost == cold_cost(engine)

    def test_departure_frees_capacity(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        before = engine.residual_capacity()
        result = engine.apply([CustomerDepart(0)])
        assert result.applied == 1
        assert engine.n_active == 1
        assert engine.residual_capacity() == before + 1
        assert sum(engine.load_per_facility().values()) == 1

    def test_second_departure_in_one_batch_rejected(self):
        # The repeat is rejected before the end-of-batch repair runs, and
        # the departed handle no longer resolves.
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        free = engine.residual_capacity()
        result = engine.apply([CustomerDepart(0), CustomerDepart(0)])
        assert [o.status for o in result.outcomes] == ["applied", "rejected"]
        assert engine.n_active == 1
        assert engine.residual_capacity() == free + 1
        assert engine.cost == cold_cost(engine)
        with pytest.raises(InvalidInstanceError):
            engine.node_of(0)

    def test_handles_survive_departure_repair(self):
        # Capacity 1 everywhere: customer 0 leaves a full facility, so
        # its component is re-solved and the rows are renumbered.
        engine = ServeEngine(grid_instance(capacities=(1, 1, 1)), [0, 1, 2])
        handle = engine.apply([CustomerArrive(13)]).outcomes[0].handle
        result = engine.apply([CustomerDepart(0)])
        assert result.repaired_components == 1
        assert engine.handles() == [1, handle]
        assert engine.customer_nodes() == [18, 13]
        assert set(engine.assignment()) == {1, handle}
        assert engine.cost == cold_cost(engine)

    def test_first_reveal_departure_needs_no_repair(self):
        # Both customers were matched over their first revealed edge, at
        # a facility that never filled: the leaver touched no other row,
        # so the component is still its cold replay without it.
        inst = MCFSInstance(
            network=build_line_network(12),
            customers=(5, 4),
            facility_nodes=(5, 9),
            capacities=(3, 5),
            k=2,
        )
        engine = ServeEngine(inst, [0, 1])
        result = engine.apply([CustomerDepart(0)])
        assert result.repaired_components == 0
        assert result.staleness == "optimal"
        assert engine.cost == pytest.approx(1.0)
        assert engine.cost == cold_cost(engine)
        assert engine.assignment() == cold_assignment(engine, [0, 1])

    def test_departure_from_full_facility_repairs(self):
        # Customers 5 and 4 fill node 5's two seats, which pushed
        # customer 6 to node 9.  When 5 leaves, 6 must take its seat.
        inst = MCFSInstance(
            network=build_line_network(12),
            customers=(5, 6, 4),
            facility_nodes=(5, 9),
            capacities=(2, 5),
            k=2,
        )
        engine = ServeEngine(inst, [0, 1])
        assert engine.facility_of(1) == 1
        result = engine.apply([CustomerDepart(0)])
        assert result.repaired_components == 1
        assert result.moves == 1
        assert engine.cost == pytest.approx(2.0)
        assert engine.cost == cold_cost(engine)
        assert engine.assignment() == cold_assignment(engine, [0, 1])

    def test_displaced_departure_repairs(self):
        # The newcomer at node 5 displaces customer 6 to node 10, which
        # reveals 6's second edge.  Node 10 keeps a free seat, yet 6's
        # departure still re-solves: its row took part in another search.
        inst = MCFSInstance(
            network=build_line_network(12),
            customers=(6,),
            facility_nodes=(5, 10),
            capacities=(1, 2),
            k=2,
        )
        engine = ServeEngine(inst, [0, 1])
        engine.apply([CustomerArrive(5)])
        assert engine.facility_of(0) == 1
        result = engine.apply([CustomerDepart(0)])
        assert result.repaired_components == 1
        assert engine.cost == 0.0
        assert engine.assignment() == cold_assignment(engine, [0, 1])

    def test_departed_rows_are_compacted(self):
        # With ample capacity most departures need no re-solve and leave
        # their rows behind; once those outnumber the live rows, the
        # live rows move into a fresh state.
        caps = (40, 40, 40)
        engine = ServeEngine(grid_instance(capacities=caps), [0, 1, 2])
        trace = synthesize_trace(
            GRID,
            1500,
            facility_nodes=engine.selected_nodes,
            capacities=caps,
            start_handle=2,
            customer_nodes=(6, 18),
            seed=7,
            p_depart=0.45,
        )
        batch = 25
        lingering = 0
        for start in range(0, len(trace), batch):
            result = engine.apply(trace[start:start + batch])
            assert result.staleness == "optimal"
            rows = engine._state.m  # live rows plus departed ones
            assert rows <= 2 * engine.n_active + batch
            lingering = max(lingering, rows - engine.n_active)
        assert lingering > 0
        assert engine.cost == cold_cost(engine)
        assert engine.assignment() == cold_assignment(engine, [0, 1, 2])

    def test_departure_of_unknown_handle_rejected(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        engine.apply([CustomerDepart(0)])
        outcome = engine.apply([CustomerDepart(0)]).outcomes[0]
        assert outcome.status == "rejected"
        assert "no active customer" in outcome.detail

    def test_lazy_mode_defers_then_repairs(self):
        inst = MCFSInstance(
            network=build_line_network(12),
            customers=(5, 4),
            facility_nodes=(5, 9),
            capacities=(1, 5),
            k=2,
        )
        engine = ServeEngine(inst, [0, 1], auto_repair=False)
        result = engine.apply([CustomerDepart(0)])
        assert result.staleness == "feasible"
        assert engine.cost == pytest.approx(5.0)  # stale but feasible
        assert engine.repair() == 1
        assert engine.staleness == "optimal"
        assert engine.cost == pytest.approx(1.0)


class TestEngineCapacity:
    def test_noop_and_unknown_facility(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        outcomes = engine.apply(
            [CapacityChange(0, 3), CapacityChange(7, 5)]
        ).outcomes
        assert outcomes[0].status == "applied"  # no-op re-rate
        assert outcomes[1].status == "rejected"
        assert "not a selected facility" in outcomes[1].detail

    def test_increase_on_saturated_facility_reoptimizes(self):
        # Both want node-5's facility (capacity 1); one is pushed to
        # node 9.  Raising node-5's capacity must pull them both in.
        inst = MCFSInstance(
            network=build_line_network(12),
            customers=(5, 4),
            facility_nodes=(5, 9),
            capacities=(1, 5),
            k=2,
        )
        engine = ServeEngine(inst, [0, 1])
        assert engine.cost == pytest.approx(5.0)
        result = engine.apply([CapacityChange(5, 2)])
        assert result.repaired_components == 1
        assert engine.cost == pytest.approx(1.0)
        assert engine.selected_capacities == (2, 5)
        assert engine.cost == cold_cost(engine)

    def test_decrease_below_load_evicts_but_stays_optimal(self):
        inst = MCFSInstance(
            network=build_line_network(12),
            customers=(5, 4),
            facility_nodes=(5, 9),
            capacities=(2, 5),
            k=2,
        )
        engine = ServeEngine(inst, [0, 1])
        result = engine.apply([CapacityChange(5, 1)])
        assert result.outcomes[0].status == "applied"
        loads = engine.load_per_facility()
        assert loads[0] <= 1
        assert engine.cost == cold_cost(engine)
        assert engine.staleness == "optimal"

    def test_arrival_after_cut_waits_for_the_eviction(self):
        # The cut leaves node 10's facility one seat over its load; the
        # component is then full, so the second arrival is rejected
        # instead of taking node 0's seat, which the eviction needs.
        engine = path_engine(11, (1, 4), (10, 10, 10))
        result = engine.apply(
            [CustomerArrive(10), CapacityChange(10, 3), CustomerArrive(10)]
        )
        assert [o.status for o in result.outcomes] == [
            "applied", "applied", "rejected"
        ]
        assert (result.applied, result.rejected) == (2, 1)
        assert result.staleness == "optimal"
        assert engine.cost == cold_cost(engine) == 10.0
        TestServeMatchesColdReplay.assert_cold_replay(engine, [0, 1])

    def test_headroom_cut_cannot_strand_pending_overflow(self):
        # Node 10's facility is cut below its load, so node 0's facility
        # must take the overflow; cutting node 0's unused seat would
        # strand it, and is rejected although it is above node 0's load.
        engine = path_engine(11, (2, 1), (0, 10))
        result = engine.apply([CapacityChange(10, 0), CapacityChange(0, 1)])
        assert [o.status for o in result.outcomes] == ["applied", "rejected"]
        assert "strand" in result.outcomes[1].detail
        assert result.staleness == "optimal"
        assert engine.selected_capacities == (2, 0)
        assert engine.cost == cold_cost(engine) == 10.0
        TestServeMatchesColdReplay.assert_cold_replay(engine, [0, 1])

    def test_stranding_decrease_rejected(self):
        inst = MCFSInstance(
            network=build_line_network(6),
            customers=(0, 1),
            facility_nodes=(2,),
            capacities=(2,),
            k=1,
        )
        engine = ServeEngine(inst, [0])
        outcome = engine.apply([CapacityChange(2, 1)]).outcomes[0]
        assert outcome.status == "rejected"
        assert "strand" in outcome.detail
        assert engine.selected_capacities == (2,)


class TestEngineRetime:
    def test_retime_triggers_global_repair(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        result = engine.apply([EdgeRetime(6, 7, 10.0)])
        assert result.outcomes[0].status == "applied"
        assert result.global_repair
        assert engine.staleness == "optimal"
        assert engine.cost == cold_cost(engine)

    def test_retime_unknown_edge_rejected(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        outcome = engine.apply([EdgeRetime(0, 24, 1.0)]).outcomes[0]
        assert outcome.status == "rejected"
        assert "no edge" in outcome.detail

    def test_retime_bad_weight_rejected(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        for weight in (0.0, -1.0, float("inf"), float("nan")):
            outcome = engine.apply([EdgeRetime(6, 7, weight)]).outcomes[0]
            assert outcome.status == "rejected", weight

    def test_oscillating_retimes_hit_the_cache(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2], cache=4)
        edges = list(GRID.edges())
        u, v, w = edges[0]
        rush = engine.apply([EdgeRetime(int(u), int(v), float(w) * 3)])
        assert not rush.cache_hit
        calm = engine.apply([EdgeRetime(int(u), int(v), float(w))])
        assert not calm.cache_hit  # first time back at base weights
        rush2 = engine.apply([EdgeRetime(int(u), int(v), float(w) * 3)])
        assert rush2.cache_hit
        assert rush2.staleness == "cached"
        assert engine.cost == pytest.approx(rush.cost)
        assert engine.cost == cold_cost(engine)

    def test_arrival_after_retime_in_same_batch_is_deferred_then_served(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        result = engine.apply([EdgeRetime(6, 7, 5.0), CustomerArrive(13)])
        assert [o.status for o in result.outcomes] == ["applied", "applied"]
        assert result.staleness == "optimal"
        assert engine.n_active == 3
        assert engine.cost == cold_cost(engine)


class TestDeadlinesAndAdmission:
    def test_expired_deadline_sheds_but_stays_feasible(self):
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        before = engine.cost
        result = engine.apply(
            [CustomerArrive(13), CustomerArrive(2)], deadline=0.0
        )
        assert result.deadline_exceeded
        assert result.shed == 2
        assert all(o.detail == "deadline" for o in result.outcomes)
        assert engine.n_active == 2
        assert engine.cost == before

    def test_deadline_shed_departure_repair_deferred_not_lost(self):
        inst = MCFSInstance(
            network=build_line_network(12),
            customers=(5, 4),
            facility_nodes=(5, 9),
            capacities=(1, 5),
            k=2,
        )
        engine = ServeEngine(inst, [0, 1])
        # Generous deadline: the departure applies; the optimality repair
        # is mandatory-free so a later repair() must finish the job even
        # if a pathological clock sheds it.
        result = engine.apply([CustomerDepart(0)], deadline=30.0)
        assert result.applied == 1
        engine.repair()
        assert engine.staleness == "optimal"
        assert engine.cost == pytest.approx(1.0)

    def test_queue_overflow_sheds_suffix(self):
        engine = ServeEngine(
            grid_instance(), [0, 1, 2], max_batch=2, seed_customers=False
        )
        result = engine.apply([CustomerArrive(n) for n in (6, 18, 13, 2)])
        assert result.applied == 2
        assert result.shed == 2
        assert [o.detail for o in result.outcomes[-2:]] == ["queue", "queue"]
        assert engine.n_active == 2

    def test_serve_counters_emitted(self):
        registry = metrics.Registry()
        with metrics.use(registry):
            # Capacity 1 everywhere, so the departure leaves a full
            # facility and its component is repaired.
            engine = ServeEngine(
                grid_instance(capacities=(1, 1, 1)), [0, 1, 2], max_batch=8
            )
            engine.apply([CustomerArrive(13), CustomerDepart(0)])
        counts = registry.as_dict()
        assert counts["serve.batches"] == 1
        assert counts["serve.mutations"] == 2
        assert counts["serve.applied"] == 2
        assert counts["serve.repairs_component"] == 1
        assert counts["serve.shed_queue"] == 0
        assert counts["serve.cache_misses"] == 0


class TestEngineUnderCH:
    """A churn replay inside a CH scope must match the kernel replay."""

    @staticmethod
    def two_city_instance() -> MCFSInstance:
        # Two 15x15 grid cities as two components, four facilities each:
        # a departure dirties one city, and the scoped re-solve
        # transplants the other city's rows, cursors and all.
        east = grid_city(15, 15, seed=0)
        west = grid_city(15, 15, seed=1)
        n = east.n_nodes
        network = Network(
            2 * n,
            list(east.edges()) + [(u + n, v + n, w) for u, v, w in west.edges()],
        )
        rng = np.random.default_rng(5)
        facilities = sorted(int(v) for v in rng.choice(n, 4, replace=False))
        facilities += sorted(int(v) + n for v in rng.choice(n, 4, replace=False))
        return MCFSInstance(
            network=network,
            customers=tuple(int(v) for v in rng.integers(0, 2 * n, 6)),
            facility_nodes=tuple(facilities),
            capacities=(5,) * 8,
            k=8,
        )

    def test_replay_matches_kernel_and_cold_solve(self, monkeypatch):
        inst = self.two_city_instance()
        trace = synthesize_trace(
            inst.network,
            300,
            facility_nodes=inst.facility_nodes,
            capacities=inst.capacities,
            start_handle=len(inst.customers),
            customer_nodes=inst.customers,
            seed=3,
            p_depart=0.35,
            p_capacity=0.1,
        )
        kinds = {mutation_kind(m) for m in trace}
        assert kinds == {"arrive", "depart", "capacity"}

        # Count transplanted cursors whose CH stream is paused mid-sweep.
        paused = []
        original = BipartiteState.transplant_row

        def transplant_row(state, i, other, other_row):
            cursor = other._cursors[other_row]
            stream = getattr(cursor, "_stream", None)
            if isinstance(stream, CHFacilityStream) and stream._sweep:
                paused.append(other_row)
            return original(state, i, other, other_row)

        monkeypatch.setattr(BipartiteState, "transplant_row", transplant_row)

        def replay(scope):
            registry = metrics.Registry()
            with metrics.use(registry), scope:
                engine = ServeEngine(inst, list(range(inst.l)))
                for start in range(0, len(trace), 6):
                    result = engine.apply(trace[start:start + 6])
                    assert result.staleness == "optimal"
                    assert result.rejected == result.shed == 0
            return engine, registry.as_dict()

        kernel, _ = replay(nullcontext())
        assert not paused
        hierarchy = ContractionHierarchy.build(inst.network)
        fast, counts = replay(oracle_mod.use(hierarchy))
        assert paused, "no transplanted cursor held a paused CH stream"
        assert counts["serve.repairs_component"] > 0
        assert counts["oracle.streams"] > 0
        assert counts["incremental.streams"] == 0
        assert fast.assignment() == kernel.assignment()
        assert fast.cost == kernel.cost == cold_cost(fast)


class TestServeMatchesColdReplay:
    """Seeded churn on small tie-heavy networks against a cold replay.

    Ties are where a departure rule that keeps *a* min-cost flow, but
    not the cold replay, shows up: another optimal assignment, or a cost
    a few ulps away.  "Skip the re-solve when the facility's potential
    is 0" is such a rule, and it fails dozens of these cases.  After
    every batch the engine's cost, per-handle facility and live rows
    (edges in reveal order, potentials, cursor ranks) must equal those
    of a cold ``assign_all`` of its customers in handle order.
    """

    WEIGHTS = (0.1, 0.2, 0.3, 0.5, 0.7, 1.1)
    CASES = 300

    @classmethod
    def churn_case(
        cls, seed: int
    ) -> tuple[ServeEngine, list[int], list[Mutation], np.random.Generator]:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 31))
        if seed % 2:
            weights = [float(w) for w in rng.integers(1, 5, size=2 * n)]
        else:
            weights = [float(w) for w in rng.choice(cls.WEIGHTS, size=2 * n)]
        # A random spanning tree plus up to n chords: connected.
        edges = {(int(rng.integers(0, v)), v): weights[v] for v in range(1, n)}
        for w in weights[n:n + int(rng.integers(0, n + 1))]:
            u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            edges.setdefault((u, v), w)
        network = Network(n, [(u, v, w) for (u, v), w in edges.items()])
        l = int(rng.integers(2, min(6, n) + 1))
        facilities = [int(x) for x in rng.choice(n, l, replace=False)]
        caps = [int(x) for x in rng.integers(1, 5, size=l)]
        # Few distinct customer nodes, so customers share nodes.
        hot = rng.choice(n, max(2, n // 4), replace=False)
        customers = [
            int(x) for x in rng.choice(hot, int(rng.integers(1, sum(caps) + 1)))
        ]
        selected = list(range(l))
        inst = MCFSInstance(
            network, tuple(customers), tuple(facilities), tuple(caps), k=l
        )
        trace = synthesize_trace(
            network,
            40,
            facility_nodes=facilities,
            capacities=caps,
            start_handle=len(customers),
            customer_nodes=customers,
            seed=seed,
            p_depart=0.45,
            p_capacity=0.1,
        )
        return ServeEngine(inst, selected), selected, trace, rng

    @staticmethod
    def assert_cold_replay(engine: ServeEngine, selected: list[int]) -> None:
        cold = assign_all(
            engine.network,
            engine.customer_nodes(),
            list(engine.selected_nodes),
            list(engine.selected_capacities),
        )
        assert engine.cost == cold.cost
        handles = engine.handles()
        assert engine.assignment() == {
            h: selected[j] for h, j in zip(handles, cold.assignment, strict=True)
        }
        warm, ref = engine._state, cold.state
        assert warm.facility_potential == ref.facility_potential
        for i, h in enumerate(handles):
            row = engine._row_of_handle[h]
            assert list(warm.edges[row].items()) == list(ref.edges[i].items())
            assert warm.customer_potential[row] == ref.customer_potential[i]
            assert warm.cursor_rank(row) == ref.cursor_rank(i)

    def test_every_batch_matches_cold_replay(self):
        # Batches with a departure that kept / re-solved the component.
        kept = repaired = 0
        for seed in range(self.CASES):
            engine, selected, trace, rng = self.churn_case(seed)
            start = 0
            while start < len(trace):
                batch = trace[start:start + int(rng.integers(1, 6))]
                start += len(batch)
                result = engine.apply(batch)
                assert result.staleness == "optimal", seed
                assert result.rejected == result.shed == 0, seed
                if any(isinstance(m, CustomerDepart) for m in batch):
                    kept += result.repaired_components == 0
                    repaired += result.repaired_components > 0
                if engine.n_active:
                    try:
                        self.assert_cold_replay(engine, selected)
                    except AssertionError as exc:
                        raise AssertionError(f"case {seed}: {exc}") from exc
        assert kept > 1000
        assert repaired > 100


class TestServeHostileDifferential:
    """Seeded hostile batches against a cold replay.

    Unlike the synthesized traces, these batches arrive into full
    components and cut facilities to their load or one seat below it,
    mixed with departures in one batch.  After every batch ``apply`` has
    not raised, every mutation has an outcome, and an ``"optimal"``
    batch is the cold replay of its customers.
    """

    CASES = 400
    BATCHES = 12

    @staticmethod
    def hostile_case(
        seed: int,
    ) -> tuple[ServeEngine, list[int], np.random.Generator]:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 21))
        weights = [
            float(w)
            for w in rng.choice(TestServeMatchesColdReplay.WEIGHTS, size=2 * n)
        ]
        # A random spanning tree plus up to n chords: connected.
        edges = {(int(rng.integers(0, v)), v): weights[v] for v in range(1, n)}
        for w in weights[n:n + int(rng.integers(0, n + 1))]:
            u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            edges.setdefault((u, v), w)
        network = Network(n, [(u, v, w) for (u, v), w in edges.items()])
        l = int(rng.integers(2, 5))
        facilities = [int(x) for x in rng.choice(n, l, replace=False)]
        caps = [int(x) for x in rng.integers(1, 5, size=l)]
        hot = [int(x) for x in rng.choice(n, max(2, n // 4), replace=False)]
        customers = [
            int(x) for x in rng.choice(hot, int(rng.integers(1, sum(caps) + 1)))
        ]
        inst = MCFSInstance(
            network, tuple(customers), tuple(facilities), tuple(caps), k=l
        )
        return ServeEngine(inst, list(range(l))), hot, rng

    @staticmethod
    def hostile_batch(
        engine: ServeEngine, hot: list[int], rng: np.random.Generator
    ) -> list[Mutation]:
        handles = engine.handles()
        loads = engine.load_per_facility()
        batch: list[Mutation] = []
        for _ in range(int(rng.integers(1, 5))):
            roll = rng.random()
            if roll < 0.25 and handles:
                handle = handles.pop(int(rng.integers(0, len(handles))))
                batch.append(CustomerDepart(handle))
            elif roll < 0.5:
                pos = int(rng.integers(0, len(engine.selected_nodes)))
                load = loads[pos]
                cut = max(0, load - int(rng.integers(0, 2)))
                batch.append(CapacityChange(engine.selected_nodes[pos], cut))
            else:
                batch.append(CustomerArrive(hot[int(rng.integers(0, len(hot)))]))
        return batch

    def test_hostile_batches_match_cold_replay(self):
        rejected = optimal = 0
        for seed in range(self.CASES):
            engine, hot, rng = self.hostile_case(seed)
            selected = list(range(len(engine.selected_nodes)))
            for step in range(self.BATCHES):
                batch = self.hostile_batch(engine, hot, rng)
                where = f"case {seed}, batch {step}: {batch}"
                try:
                    result = engine.apply(batch)
                except Exception as exc:
                    raise AssertionError(f"{where} raised {exc!r}") from exc
                assert len(result.outcomes) == len(batch), where
                assert (
                    result.applied + result.rejected + result.shed == len(batch)
                ), where
                rejected += result.rejected
                if result.staleness != "optimal":
                    continue
                optimal += 1
                if engine.n_active:
                    try:
                        TestServeMatchesColdReplay.assert_cold_replay(
                            engine, selected
                        )
                    except AssertionError as exc:
                        raise AssertionError(f"{where}: {exc}") from exc
        # The batches did reach full components and stranding cuts.
        assert rejected > self.CASES
        assert optimal == self.CASES * self.BATCHES


class TestServeCLI:
    def test_synthesize_replay_and_summary(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        summary = tmp_path / "summary.json"
        code = main(
            [
                "serve",
                "--n", "64",
                "--seed", "2",
                "--synthesize", "80",
                "--trace", str(trace),
                "--batch", "16",
                "-o", str(summary),
            ]
        )
        assert code == 0
        doc = json.loads(summary.read_text())
        assert doc["n_mutations"] == 80
        assert doc["rejected"] == 0 and doc["shed"] == 0
        assert doc["staleness"]["optimal"] + doc["staleness"]["cached"] == (
            doc["batches"]
        )
        assert doc["metrics"]["serve.mutations"] == 80
        # The written trace replays to the same end state.
        summary2 = tmp_path / "summary2.json"
        code = main(
            [
                "serve",
                "--n", "64",
                "--seed", "2",
                "--trace", str(trace),
                "--batch", "16",
                "-o", str(summary2),
            ]
        )
        assert code == 0
        doc2 = json.loads(summary2.read_text())
        assert doc2["final_cost"] == doc["final_cost"]

    def test_requires_trace_or_synthesize(self, capsys):
        from repro.cli import main

        assert main(["serve", "--n", "64"]) == 2
        assert "--trace" in capsys.readouterr().err
