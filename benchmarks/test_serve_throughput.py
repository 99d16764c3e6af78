"""Benchmark: online serving throughput on a city-scale graph.

Replays an arrivals-only 1k-mutation stream through
:class:`repro.serve.ServeEngine` on the ~5k-node perturbed Manhattan
grid and compares it with per-mutation cold re-solves.

The matcher's assignment path runs on resumable nearest-facility
streams, not on the batch Dijkstra kernel, so ``dijkstra.runs``
is zero on *both* paths (asserted); the honest work metric is
``incremental.streams`` -- how many per-customer Dijkstra streams each
strategy opens.  Streams are pooled per source node, so the warm engine
opens at most one per distinct arrival node across the whole replay,
while a cold re-solve after the ``t``-th arrival re-opens one per
*distinct active customer node* (verified empirically on sampled
states); the full per-mutation sweep's stream count is therefore an
exact prefix sum and the 10x gate needs no extrapolation.

Mutations/sec at ``staleness == "optimal"`` -- with and without the CH
oracle scope active -- is appended to ``BENCH_serve.json``.

Run with:
    pytest benchmarks/test_serve_throughput.py -s
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core.instance import MCFSInstance
from repro.datagen.urban import grid_city
from repro.flow.sspa import assign_all
from repro.network import oracle as oracle_mod
from repro.network.ch import ContractionHierarchy
from repro.obs import metrics
from repro.serve import CustomerArrive, ServeEngine, synthesize_trace

ROWS = COLS = 71  # ~5k nodes, the scale the acceptance criterion names
N_MUTATIONS = 1000
BATCH = 100
N_FACILITIES = 24
CAPACITY = 50  # 24 x 50 seats comfortably hold the 1k arrivals
COLD_STRIDE = 100  # cold re-solve sampled every 100th arrival state
REQUIRED_STREAM_REDUCTION = 10.0
BENCH_ROW_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_serve.json"
)


def _city_instance():
    network = grid_city(ROWS, COLS, seed=0)
    assert network.n_nodes >= 5000
    rng = np.random.default_rng(7)
    facility_nodes = sorted(
        int(v)
        for v in rng.choice(network.n_nodes, size=N_FACILITIES, replace=False)
    )
    customers = tuple(
        int(v) for v in rng.integers(0, network.n_nodes, size=8)
    )
    return MCFSInstance(
        network=network,
        customers=customers,
        facility_nodes=tuple(facility_nodes),
        capacities=(CAPACITY,) * N_FACILITIES,
        k=N_FACILITIES,
    )


def _replay(instance, arrivals, *, oracle=None):
    """One warm replay; returns (engine, seconds, counters)."""
    reg = metrics.Registry()
    scope = oracle_mod.use(oracle) if oracle is not None else None
    with metrics.use(reg):
        engine = ServeEngine(instance, range(N_FACILITIES))
        started = time.perf_counter()
        if scope is None:
            for start in range(0, len(arrivals), BATCH):
                result = engine.apply(arrivals[start:start + BATCH])
                assert result.staleness == "optimal"
                assert result.rejected == 0 and result.shed == 0
        else:
            with scope:
                for start in range(0, len(arrivals), BATCH):
                    result = engine.apply(arrivals[start:start + BATCH])
                    assert result.staleness == "optimal"
                    assert result.rejected == 0 and result.shed == 0
        elapsed = time.perf_counter() - started
    return engine, elapsed, reg.as_dict()


def test_serve_throughput_city_scale():
    instance = _city_instance()
    arrivals = synthesize_trace(
        instance.network,
        N_MUTATIONS,
        facility_nodes=[
            instance.facility_nodes[j] for j in range(N_FACILITIES)
        ],
        capacities=[CAPACITY] * N_FACILITIES,
        start_handle=len(instance.customers),
        customer_nodes=list(instance.customers),
        seed=11,
        p_depart=0.0,
        p_capacity=0.0,
    )
    assert all(isinstance(m, CustomerArrive) for m in arrivals)

    engine, warm_sec, warm_counts = _replay(instance, arrivals)
    warm_streams = warm_counts["incremental.streams"]
    assert warm_counts.get("dijkstra.runs", 0) == 0

    # Cold reference: re-solve the full assignment after every arrival.
    # Streams are pooled per source node, so a cold solve opens exactly
    # one stream per distinct customer node; sampled states verify that,
    # which gives the full sweep's total as an exact prefix sum without
    # running all 1000 solves.
    sub_nodes = [instance.facility_nodes[j] for j in range(N_FACILITIES)]
    sub_caps = [CAPACITY] * N_FACILITIES
    m0 = len(instance.customers)
    nodes = list(instance.customers) + [m.node for m in arrivals]
    distinct_prefix = []  # distinct nodes among the first i customers
    seen: set[int] = set()
    for node in nodes:
        seen.add(node)
        distinct_prefix.append(len(seen))
    cold_sampled_sec = 0.0
    n_sampled = 0
    for t in range(COLD_STRIDE, N_MUTATIONS + 1, COLD_STRIDE):
        reg = metrics.Registry()
        t0 = time.perf_counter()
        with metrics.use(reg):
            assign_all(instance.network, nodes[: m0 + t], sub_nodes, sub_caps)
        cold_sampled_sec += time.perf_counter() - t0
        n_sampled += 1
        counts = reg.as_dict()
        assert counts["incremental.streams"] == distinct_prefix[m0 + t - 1]
        assert counts.get("dijkstra.runs", 0) == 0
    cold_streams_total = sum(
        distinct_prefix[m0 + t - 1] for t in range(1, N_MUTATIONS + 1)
    )

    stream_reduction = cold_streams_total / warm_streams
    final_cold = assign_all(
        instance.network, nodes, sub_nodes, sub_caps
    ).cost
    assert engine.cost == final_cold  # bit-identical, not approx

    # Same replay under the CH oracle scope (distance queries that fall
    # through to matrix/point lookups ride the hierarchy).
    ch_started = time.perf_counter()
    hierarchy = ContractionHierarchy.build(instance.network)
    ch_build_sec = time.perf_counter() - ch_started
    engine_ch, ch_sec, ch_counts = _replay(instance, arrivals, oracle=hierarchy)
    assert engine_ch.cost == final_cold

    warm_rate = N_MUTATIONS / warm_sec
    ch_rate = N_MUTATIONS / ch_sec
    row = {
        "bench": "serve_throughput_arrivals",
        "graph": {"kind": "grid_city", "rows": ROWS, "cols": COLS,
                  "seed": 0, "n_nodes": instance.network.n_nodes},
        "workload": {"mutations": N_MUTATIONS, "batch": BATCH,
                     "facilities": N_FACILITIES, "capacity": CAPACITY},
        "warm": {"sec": round(warm_sec, 4),
                 "mutations_per_sec": round(warm_rate, 1),
                 "staleness": "optimal",
                 "streams": warm_streams,
                 "kernel_runs": warm_counts.get("dijkstra.runs", 0)},
        "warm_ch_oracle": {"sec": round(ch_sec, 4),
                           "build_sec": round(ch_build_sec, 4),
                           "mutations_per_sec": round(ch_rate, 1),
                           "staleness": "optimal"},
        "cold": {"sampled_resolves": n_sampled,
                 "sampled_sec": round(cold_sampled_sec, 4),
                 "streams_total": cold_streams_total},
        "stream_reduction": round(stream_reduction, 1),
        "final_cost": round(final_cold, 2),
    }
    with open(BENCH_ROW_PATH, "a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(
        f"\nwarm: {N_MUTATIONS} arrivals in {warm_sec:.2f}s "
        f"({warm_rate:.0f} mut/s, {warm_streams:g} streams) | "
        f"ch-oracle: {ch_rate:.0f} mut/s | cold sweep: "
        f"{cold_streams_total:g} streams "
        f"({n_sampled} states sampled, {cold_sampled_sec:.2f}s) -> "
        f"{stream_reduction:.0f}x fewer streams"
    )
    assert stream_reduction >= REQUIRED_STREAM_REDUCTION
    assert warm_rate > 0


def test_final_cost_matches_cold_solve_small():
    """Cheap guard: the same equivalence on a small instance."""
    instance = MCFSInstance(
        network=grid_city(12, 12, seed=1),
        customers=(3, 50, 77),
        facility_nodes=(0, 60, 140),
        capacities=(30, 30, 30),
        k=3,
    )
    arrivals = synthesize_trace(
        instance.network,
        60,
        facility_nodes=[0, 60, 140],
        capacities=[30, 30, 30],
        start_handle=3,
        customer_nodes=[3, 50, 77],
        seed=2,
        p_depart=0.0,
        p_capacity=0.0,
    )
    engine = ServeEngine(instance, [0, 1, 2])
    result = engine.apply(arrivals)
    assert result.applied == 60
    cold = assign_all(
        instance.network,
        engine.customer_nodes(),
        [0, 60, 140],
        [30, 30, 30],
    ).cost
    assert engine.cost == cold
    assert engine.cost == pytest.approx(cold)
