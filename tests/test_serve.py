"""Tests for the online serving engine (:mod:`repro.serve`).

Covers the typed-mutation vocabulary and trace I/O, admission control,
the fingerprint-keyed solution cache, and the engine itself: warm
incremental arrivals, component-scoped departure repair, capacity
re-rates, edge retimes with global re-solve, deadlines, and the
staleness contract -- each checked against a cold ``assign_all`` oracle
for bit-identical cost.
"""

from __future__ import annotations

import json

import pytest

from repro.core.instance import MCFSInstance
from repro.errors import InvalidInstanceError, MatchingError
from repro.flow.bipartite import BipartiteState
from repro.flow.sspa import assign_all
from repro.obs import metrics
from repro.serve import (
    AdmissionController,
    CapacityChange,
    CustomerArrive,
    CustomerDepart,
    EdgeRetime,
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
        engine = ServeEngine(grid_instance(), [0, 1, 2])
        handle = engine.apply([CustomerArrive(13)]).outcomes[0].handle
        result = engine.apply([CustomerDepart(0)])
        assert result.repaired_components == 1
        assert engine.handles() == [1, handle]
        assert engine.customer_nodes() == [18, 13]
        assert set(engine.assignment()) == {1, handle}
        assert engine.cost == cold_cost(engine)

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
            engine = ServeEngine(grid_instance(), [0, 1, 2], max_batch=8)
            engine.apply([CustomerArrive(13), CustomerDepart(0)])
        counts = registry.as_dict()
        assert counts["serve.batches"] == 1
        assert counts["serve.mutations"] == 2
        assert counts["serve.applied"] == 2
        assert counts["serve.repairs_component"] == 1
        assert counts["serve.shed_queue"] == 0
        assert counts["serve.cache_misses"] == 0


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
