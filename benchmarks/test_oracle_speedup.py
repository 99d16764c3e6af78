"""Oracle-tier speedups on city-scale workloads (acceptance gates).

Two tiers, two workload shapes:

* **ALT** (point-to-point): once the landmark vectors are paid for (one
  kernel Dijkstra per landmark), every further query is a goal-directed
  A* that runs **zero** kernel Dijkstras -- at least a 10x reduction in
  ``dijkstra.runs`` on a repeated-query workload.
* **CH** (matrix-shaped): the many-to-many bucket algorithm replaces one
  kernel Dijkstra *per source* with one upward sweep per endpoint plus
  bucket scans, so whole ``distance_matrix`` blocks come out at least
  3x faster in wall-clock than the ALT path (which has no matrix hook
  and falls back to per-source kernel Dijkstras), preprocessing
  included, with a >= 30x reduction in kernel runs.

The three-way comparison appends a machine-readable row to
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
from repro.network.oracle import AltOracle
from repro.obs import metrics

#: 71 x 71 perturbed Manhattan grid: ~5k nodes, the scale the issue's
#: acceptance criterion names.
ROWS = COLS = 71
N_QUERIES = 250
REQUIRED_SPEEDUP = 10.0

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


class TestOracleKernelRunReduction:
    def test_repeated_queries_need_10x_fewer_kernel_runs(self):
        network = grid_city(ROWS, COLS, seed=0)
        assert network.n_nodes >= 5000
        pairs = _workload(network)

        kernel_reg = metrics.Registry()
        with metrics.use(kernel_reg):
            kernel_answers = [
                float(distance_matrix(network, [u], [v])[0, 0])
                for u, v in pairs
            ]
        kernel_runs = kernel_reg.as_dict()["dijkstra.runs"]

        oracle_reg = metrics.Registry()
        with metrics.use(oracle_reg):
            oracle = AltOracle.build(network)  # landmark Dijkstras count
            oracle_answers = [oracle.query(u, v) for u, v in pairs]
        oracle_runs = oracle_reg.as_dict()["dijkstra.runs"]

        assert oracle_answers == kernel_answers  # bit-identical
        assert oracle_runs > 0  # the build is honestly included
        speedup = kernel_runs / oracle_runs
        print(
            f"\nkernel path: {kernel_runs:g} kernel runs for "
            f"{N_QUERIES} queries; oracle path: {oracle_runs:g} "
            f"(build included) -> {speedup:.1f}x fewer"
        )
        assert speedup >= REQUIRED_SPEEDUP

    def test_query_work_is_goal_directed(self):
        """A* pops a small fraction of what the full Dijkstras settle."""
        network = grid_city(ROWS, COLS, seed=0)
        pairs = _workload(network, seed=1)[:50]

        kernel_reg = metrics.Registry()
        with metrics.use(kernel_reg):
            for u, _v in pairs:
                shortest_path_lengths(network, u)
        full_pops = kernel_reg.as_dict()["dijkstra.pops"]

        oracle = AltOracle.build(network)
        oracle_reg = metrics.Registry()
        with metrics.use(oracle_reg):
            for u, v in pairs:
                oracle.query(u, v)
        astar_pops = oracle_reg.as_dict()["oracle.query_pops"]
        print(
            f"\nfull-Dijkstra pops: {full_pops:g}; "
            f"goal-directed A* pops: {astar_pops:g}"
        )
        assert astar_pops < full_pops


def _timed_matrix(network, sources, targets, *, scope=None):
    """Run the matrix workload once, returning (block, seconds, counters).

    ``scope`` is an oracle instance to activate (its *build* has already
    been timed by the caller) or ``None`` for the raw kernel path.
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


class TestThreeWayMatrixComparison:
    """Kernel vs ALT vs CH on one matrix-shaped city workload."""

    def test_ch_matrix_blocks_beat_alt_path_3x(self):
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

        # ALT has no many-to-many hook: under an active ALT scope the
        # matrix path falls back to per-source kernel Dijkstras, so its
        # wall-clock is build + the kernel path.
        alt_started = time.perf_counter()
        alt = AltOracle.build(network)
        alt_build_sec = time.perf_counter() - alt_started
        alt_block, alt_run_sec, alt_counts = _timed_matrix(
            network, sources, targets, scope=alt
        )
        alt_sec = alt_build_sec + alt_run_sec

        ch_started = time.perf_counter()
        hierarchy = ContractionHierarchy.build(network)
        ch_build_sec = time.perf_counter() - ch_started
        ch_block, ch_run_sec, ch_counts = _timed_matrix(
            network, sources, targets, scope=hierarchy
        )
        ch_sec = ch_build_sec + ch_run_sec

        assert np.array_equal(kernel_block, alt_block)
        assert np.array_equal(kernel_block, ch_block)

        ch_runs = ch_counts.get("dijkstra.runs", 0)
        run_reduction = kernel_runs / max(ch_runs, 1)
        speedup_vs_alt = alt_sec / ch_sec
        row = {
            "bench": "oracle_matrix_three_way",
            "graph": {"kind": "grid_city", "rows": ROWS, "cols": COLS,
                      "seed": 0, "n_nodes": network.n_nodes},
            "workload": {"sources": N_MATRIX_SOURCES,
                         "targets": N_MATRIX_TARGETS},
            "kernel": {"sec": round(kernel_sec, 4),
                       "kernel_runs": kernel_runs},
            "alt": {"sec": round(alt_sec, 4),
                    "build_sec": round(alt_build_sec, 4),
                    "kernel_runs": alt_counts["dijkstra.runs"]},
            "ch": {"sec": round(ch_sec, 4),
                   "build_sec": round(ch_build_sec, 4),
                   "kernel_runs": ch_runs,
                   "shortcuts": hierarchy.n_shortcuts,
                   "matrix_blocks": ch_counts["ch.matrix_blocks"]},
            "speedup_vs_alt": round(speedup_vs_alt, 3),
            "kernel_run_reduction": (
                None if ch_runs == 0 else round(run_reduction, 1)
            ),
        }
        with open(BENCH_ROW_PATH, "a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(
            f"\nkernel {kernel_sec:.2f}s | alt {alt_sec:.2f}s "
            f"(build {alt_build_sec:.2f}s) | ch {ch_sec:.2f}s "
            f"(build {ch_build_sec:.2f}s) -> {speedup_vs_alt:.2f}x vs alt; "
            f"kernel runs {kernel_runs:g} -> {ch_runs:g}"
        )
        assert ch_counts["ch.matrix_blocks"] >= 1
        assert run_reduction >= REQUIRED_CH_RUN_REDUCTION
        assert speedup_vs_alt >= REQUIRED_CH_SPEEDUP
