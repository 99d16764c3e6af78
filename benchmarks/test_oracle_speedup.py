"""Contraction-hierarchy speedups on city-scale workloads (acceptance gates).

Two workload shapes:

* **Point-to-point**: once the hierarchy is built, every query is a
  bidirectional upward sweep that runs **zero** kernel Dijkstras on a
  tie-free city grid and settles a small fraction of what full
  Dijkstras settle.
* **Matrix-shaped**: the many-to-many bucket algorithm replaces one
  kernel Dijkstra *per source* with one upward sweep per endpoint plus
  bucket scans, so whole ``distance_matrix`` blocks come out at least
  3x faster in wall-clock than the kernel path, preprocessing included,
  with a >= 30x reduction in kernel runs.

The matrix comparison appends a machine-readable row to
``BENCH_oracle.json`` so the perf trajectory survives CI runs.

Run with:
    pytest benchmarks/test_oracle_speedup.py -s
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.datagen.urban import grid_city
from repro.network import oracle as oracle_mod
from repro.network.ch import ContractionHierarchy
from repro.network.dijkstra import distance_matrix, shortest_path_lengths
from repro.obs import metrics

#: 71 x 71 perturbed Manhattan grid: ~5k nodes.
ROWS = COLS = 71
N_QUERIES = 250

#: Matrix workload: one distance row per source against a fixed target
#: slice -- the shape ``kernels.distance_matrix`` sees from solvers.
#: Large enough that the one-off contraction (~2s) amortizes: the
#: per-source asymptote is ~5x, so the 3x gate holds with margin
#: against wall-clock noise.
N_MATRIX_SOURCES = 5000
N_MATRIX_TARGETS = 100
REQUIRED_CH_SPEEDUP = 3.0
REQUIRED_CH_RUN_REDUCTION = 30.0
BENCH_ROW_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_oracle.json")


def _workload(network, seed: int = 0) -> list[tuple[int, int]]:
    """Repeated point-to-point queries, as a matcher would issue them."""
    rng = np.random.default_rng(seed)
    n = network.n_nodes
    return [
        (int(u), int(v))
        for u, v in rng.integers(0, n, size=(N_QUERIES, 2))
    ]


class TestHierarchyPointQueries:
    def test_queries_run_no_kernel_dijkstra(self):
        network = grid_city(ROWS, COLS, seed=0)
        assert network.n_nodes >= 5000
        pairs = _workload(network)
        kernel_answers = [
            float(distance_matrix(network, [u], [v])[0, 0]) for u, v in pairs
        ]

        hierarchy = ContractionHierarchy.build(network)
        reg = metrics.Registry()
        with metrics.use(reg):
            answers = [hierarchy.query(u, v) for u, v in pairs]
        counts = reg.as_dict()

        assert answers == kernel_answers  # bit-identical
        assert counts["oracle.queries"] == N_QUERIES
        # The jittered city has no float-association ties, so no query
        # falls back to a kernel search.
        assert counts.get("ch.tie_fallbacks", 0) == 0
        assert counts.get("dijkstra.runs", 0) == 0

    def test_query_work_is_goal_directed(self):
        """Upward sweeps settle fewer nodes than full Dijkstras do."""
        network = grid_city(ROWS, COLS, seed=0)
        pairs = _workload(network, seed=1)[:50]

        kernel_reg = metrics.Registry()
        with metrics.use(kernel_reg):
            for u, _v in pairs:
                shortest_path_lengths(network, u)
        full_pops = kernel_reg.as_dict()["dijkstra.pops"]

        hierarchy = ContractionHierarchy.build(network)
        ch_reg = metrics.Registry()
        with metrics.use(ch_reg):
            for u, v in pairs:
                hierarchy.query(u, v)
        settles = ch_reg.as_dict()["ch.upward_settles"]
        print(
            f"\nfull-Dijkstra pops: {full_pops:g}; "
            f"CH upward and downward settles: {settles:g}"
        )
        assert settles < full_pops


def _timed_matrix(network, sources, targets, *, scope=None):
    """Run the matrix workload once, returning (block, seconds, counters).

    ``scope`` is a hierarchy to activate (its *build* has already been
    timed by the caller) or ``None`` for the raw kernel path.
    """
    reg = metrics.Registry()
    started = time.perf_counter()
    if scope is None:
        with metrics.use(reg):
            block = distance_matrix(network, sources, targets)
    else:
        with metrics.use(reg), oracle_mod.use(scope):
            block = distance_matrix(network, sources, targets)
    return block, time.perf_counter() - started, reg.as_dict()


class TestMatrixComparison:
    """Kernel vs CH on one matrix-shaped city workload."""

    def test_ch_matrix_blocks_beat_kernel_path_3x(self):
        network = grid_city(ROWS, COLS, seed=0)
        assert network.n_nodes >= 5000
        rng = np.random.default_rng(0)
        sources = [
            int(s)
            for s in rng.integers(0, network.n_nodes, size=N_MATRIX_SOURCES)
        ]
        targets = [
            int(t)
            for t in rng.choice(
                network.n_nodes, size=N_MATRIX_TARGETS, replace=False
            )
        ]

        kernel_block, kernel_sec, kernel_counts = _timed_matrix(
            network, sources, targets
        )
        kernel_runs = kernel_counts["dijkstra.runs"]

        ch_started = time.perf_counter()
        hierarchy = ContractionHierarchy.build(network)
        ch_build_sec = time.perf_counter() - ch_started
        ch_block, ch_run_sec, ch_counts = _timed_matrix(
            network, sources, targets, scope=hierarchy
        )
        ch_sec = ch_build_sec + ch_run_sec

        assert np.array_equal(kernel_block, ch_block)

        ch_runs = ch_counts.get("dijkstra.runs", 0)
        run_reduction = kernel_runs / max(ch_runs, 1)
        speedup = kernel_sec / ch_sec
        row = {
            "bench": "oracle_matrix_kernel_vs_ch",
            "graph": {"kind": "grid_city", "rows": ROWS, "cols": COLS,
                      "seed": 0, "n_nodes": network.n_nodes},
            "workload": {"sources": N_MATRIX_SOURCES,
                         "targets": N_MATRIX_TARGETS},
            "kernel": {"sec": round(kernel_sec, 4),
                       "kernel_runs": kernel_runs},
            "ch": {"sec": round(ch_sec, 4),
                   "build_sec": round(ch_build_sec, 4),
                   "kernel_runs": ch_runs,
                   "shortcuts": hierarchy.n_shortcuts,
                   "matrix_blocks": ch_counts["ch.matrix_blocks"]},
            "speedup_vs_kernel": round(speedup, 3),
            "kernel_run_reduction": (
                None if ch_runs == 0 else round(run_reduction, 1)
            ),
        }
        with open(BENCH_ROW_PATH, "a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(
            f"\nkernel {kernel_sec:.2f}s | ch {ch_sec:.2f}s "
            f"(build {ch_build_sec:.2f}s) -> {speedup:.2f}x; "
            f"kernel runs {kernel_runs:g} -> {ch_runs:g}"
        )
        assert ch_counts["ch.matrix_blocks"] >= 1
        assert run_reduction >= REQUIRED_CH_RUN_REDUCTION
        assert speedup >= REQUIRED_CH_SPEEDUP
