"""Benchmark: dynamic customer reallocation throughput.

The paper motivates MCFS with workloads that require "the dynamic
reallocation of customers to facilities"; this bench measures the
operational layer built for that, :class:`repro.serve.ServeEngine`:
incremental arrival cost versus re-solving the assignment from scratch
on every change.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import solve
from repro.bench.reporting import format_table
from repro.datagen.instances import clustered_instance
from repro.errors import MatchingError
from repro.flow.sspa import assign_all
from repro.serve import CustomerArrive, ServeEngine


def test_dynamic_arrivals(benchmark):
    instance = clustered_instance(
        512, n_clusters=20, alpha=1.5, customer_frac=0.1,
        capacity=20, k_frac_of_m=0.2, seed=3,
    )
    selection = solve(instance, method="wma").selected
    rng = np.random.default_rng(0)
    arrivals = [int(v) for v in rng.integers(0, instance.network.n_nodes, 40)]

    def incremental():
        engine = ServeEngine(instance, selection)
        served = 0
        for node in arrivals:
            result = engine.apply([CustomerArrive(node)])
            if result.applied == 0:
                break
            served += 1
        return engine, served

    engine, served = benchmark.pedantic(incremental, rounds=1, iterations=1)

    # Reference: re-solving the whole assignment after every arrival.
    sub_nodes = [instance.facility_nodes[j] for j in selection]
    sub_caps = [instance.capacities[j] for j in selection]
    t0 = time.perf_counter()
    pool_customers = list(instance.customers)
    resolves = 0
    for node in arrivals[:served]:
        pool_customers.append(node)
        try:
            assign_all(instance.network, pool_customers, sub_nodes, sub_caps)
        except MatchingError:
            pool_customers.pop()
            break
        resolves += 1
    scratch_time = time.perf_counter() - t0

    final_cost = engine.cost
    reference = assign_all(
        instance.network, pool_customers, sub_nodes, sub_caps
    ).cost

    rows = [
        {
            "strategy": "incremental (ServeEngine)",
            "arrivals": served,
            "final_cost": round(final_cost, 1),
        },
        {
            "strategy": "re-solve per arrival",
            "arrivals": resolves,
            "final_cost": round(reference, 1),
            "total_time_s": round(scratch_time, 3),
        },
    ]
    print()
    print(format_table(rows, title="Dynamic reallocation: arrivals"))

    # The incremental engine must stay exactly optimal.
    assert final_cost == pytest.approx(reference, rel=1e-9)
    benchmark.extra_info["arrivals"] = served
