"""Tests for temporal workloads and the multi-seed sweep runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.sweeps import aggregate, seeded_sweep
from repro.datagen.instances import uniform_instance
from repro.datagen.workloads import (
    WorkloadEvent,
    diurnal_rate,
    generate_workload,
    replay,
)
from repro.serve import CustomerArrive, CustomerDepart, ServeEngine
from tests.conftest import build_grid_network


class TestDiurnalRate:
    def test_peaks_beat_base(self):
        assert diurnal_rate(9.0) > diurnal_rate(3.0)
        assert diurnal_rate(18.0) > diurnal_rate(3.0)

    def test_base_floor(self):
        for h in range(24):
            assert diurnal_rate(float(h), base=1.0, peak=4.0) >= 1.0

    def test_periodic(self):
        assert diurnal_rate(9.0) == pytest.approx(diurnal_rate(33.0))


class TestGenerateWorkload:
    def test_events_ordered_and_balanced(self):
        g = build_grid_network(5, 5)
        rng = np.random.default_rng(0)
        events = generate_workload(g, rng, hours=24.0)
        times = [e.time for e in events]
        assert times == sorted(times)
        arrivals = sum(1 for e in events if e.kind == "arrival")
        departures = sum(1 for e in events if e.kind == "departure")
        assert departures <= arrivals
        assert arrivals > 0

    def test_departures_reference_arrivals(self):
        g = build_grid_network(5, 5)
        rng = np.random.default_rng(1)
        events = generate_workload(g, rng, hours=12.0)
        for e in events:
            if e.kind == "departure":
                ref = events[e.ref]
                assert ref.kind == "arrival"
                assert ref.node == e.node
                assert ref.time <= e.time

    def test_node_weights_respected(self):
        g = build_grid_network(3, 3)
        rng = np.random.default_rng(2)
        weights = np.zeros(9)
        weights[4] = 1.0
        events = generate_workload(
            g, rng, hours=24.0, node_weights=weights
        )
        assert all(e.node == 4 for e in events)

    def test_invalid_args(self):
        g = build_grid_network(3, 3)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_workload(g, rng, hours=0.0)
        with pytest.raises(ValueError):
            generate_workload(g, rng, node_weights=np.zeros(9))

    def test_replay_counts_active(self):
        events = [
            WorkloadEvent(0.0, "arrival", 1, 0),
            WorkloadEvent(1.0, "arrival", 2, 1),
            WorkloadEvent(2.0, "departure", 1, 0),
        ]
        actives = [active for _, active in replay(events)]
        assert actives == [1, 2, 1]

    def test_feeds_serve_engine(self):
        from repro.core.instance import MCFSInstance

        g = build_grid_network(6, 6)
        inst = MCFSInstance(
            network=g,
            customers=(0,),
            facility_nodes=(7, 14, 28),
            capacities=(30, 30, 30),
            k=3,
        )
        engine = ServeEngine(inst, [0, 1, 2])
        rng = np.random.default_rng(3)
        events = generate_workload(g, rng, hours=8.0, base_rate=3.0)
        handles: dict[int, int] = {}
        for pos, event in enumerate(events):
            if event.kind == "arrival":
                outcome = engine.apply([CustomerArrive(event.node)]).outcomes[0]
                if outcome.status == "applied":
                    handles[pos] = outcome.handle
            elif event.ref in handles:
                engine.apply([CustomerDepart(handles.pop(event.ref))])
        assert engine.n_active == 1 + len(handles)
        assert engine.staleness == "optimal"
        assert engine.cost >= 0.0


class TestSweeps:
    def test_seeded_sweep_and_aggregate(self):
        def factory(seed):
            return [
                (
                    {"n": n},
                    uniform_instance(n, seed=seed),
                )
                for n in (96, 128)
            ]

        rows = seeded_sweep(
            factory, seeds=(0, 1), methods=("wma", "hilbert"), x_key="n"
        )
        assert len(rows) == 2 * 2 * 2  # seeds x sizes x methods
        agg = aggregate(rows, x_key="n")
        by_key = {(r["method"], r["n"]): r for r in agg}
        assert by_key[("wma", 96)]["runs"] == 2
        assert by_key[("wma", 96)]["objective_std"] is not None
        assert by_key[("wma", 96)]["failures"] == 0

    def test_aggregate_handles_failures(self):
        from repro.bench.harness import BenchRow

        rows = [
            BenchRow("a", "exact", 5.0, 0.1, params={"n": 8, "seed": 0}),
            BenchRow(
                "a", "exact", None, None, status="timeout",
                params={"n": 8, "seed": 1},
            ),
        ]
        agg = aggregate(rows, x_key="n")
        assert agg[0]["objective_mean"] == 5.0
        assert agg[0]["failures"] == 1
        assert agg[0]["runs"] == 2

    def test_aggregate_all_failed(self):
        from repro.bench.harness import BenchRow

        rows = [
            BenchRow(
                "a", "exact", None, None, status="timeout",
                params={"n": 8, "seed": 0},
            ),
        ]
        agg = aggregate(rows, x_key="n")
        assert agg[0]["objective_mean"] is None
