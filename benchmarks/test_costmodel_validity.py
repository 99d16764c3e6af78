"""Benchmark: empirical validity of the static loop-cost model.

The cost tier (``repro.analysis.costmodel``) assigns every hot function
a symbolic worst-case degree -- the maximum nesting depth of
instance-sized loops reachable through its call graph.  That number is
only trustworthy as a *ceiling*: if a hot function's observed work grew
faster than its static degree, the model would be unsound and the
REP109 budget ratchet would be certifying garbage.

This bench solves the same uniform instance family at three sizes,
reads the ``obs`` work counters that the flow layer maintains
(augmenting-path edges, edge reveals, lazily materialized edges), and
fits a log-log growth slope for each counter.  Each counter is mapped
to the hot driver whose static summary bounds the total counted work
per solve:

====================================  =============================
counter                               bounding hot driver
====================================  =============================
``sspa.path_edges``                   ``flow.sspa.assign_all``
``sspa.reveals``                      ``flow.sspa.find_pair``
``incremental.edges_materialized``    ``flow.sspa.rebuild_rows``
====================================  =============================

``sspa.dijkstra_runs`` and ``sspa.pops`` count heap searches only.
Most residual searches on these instances are answered without a heap
(the source has no residual out-arc, or one into a facility with free
capacity), so those two counters track rewiring, not instance size:
they read 0 at n=150.

The assertion is two-sided: the empirical slope must be genuinely
instance-sized (``> SLOPE_MIN``, i.e. the function is *not* bounded --
the model was right to count its loops) and must not exceed the static
degree plus a fitting tolerance (the model is a sound upper bound).
Observed slopes on easy uniform instances sit near 1; the static
ceilings are 3-4, so a violation means the model lost a loop, not that
the fit was noisy.

Run with:
    pytest benchmarks/test_costmodel_validity.py -s
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from repro import SOLVERS
from repro.analysis.costmodel import CostModel
from repro.analysis.engine import LintEngine, default_root
from repro.datagen.instances import uniform_instance
from repro.obs import metrics

#: Instance sizes for the growth fit.  Three octave-spaced points keep
#: the fit meaningful while the whole sweep stays under a second.
SIZES = (150, 300, 600)

#: Moderate capacity pressure: loose enough to avoid the pathological
#: augmentation regime, tight enough that the SSPA layer does real work
#: (the counters stop being exact multiples of the customer count).
INSTANCE_KW = {"seed": 7, "capacity": (8, 16), "customer_frac": 0.2}

#: counter name -> cost-model node id whose static degree bounds it.
COUNTER_DRIVERS = {
    "sspa.path_edges": "flow.sspa.assign_all",
    "sspa.reveals": "flow.sspa.find_pair",
    "incremental.edges_materialized": "flow.sspa.rebuild_rows",
}

#: The empirical slope must exceed this to count as instance-sized.
#: 0.5 separates genuine linear-or-worse growth from log factors and
#: constant overheads at these sizes.
SLOPE_MIN = 0.5

#: Fitting tolerance added to the static degree ceiling.
SLOPE_TOLERANCE = 0.25

BENCH_ROW_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_lint.json"
)


def _fit_slope(sizes, counts) -> float:
    """Least-squares slope of log(count) against log(n)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(c, 1)) for c in counts]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def test_static_degrees_bound_observed_growth():
    model = CostModel(LintEngine(Path(default_root())).parse_project())

    observed: dict[int, dict[str, float]] = {}
    for n in SIZES:
        instance = uniform_instance(n, **INSTANCE_KW)
        registry = metrics.Registry()
        with metrics.use(registry):
            SOLVERS["wma"](instance)
        observed[n] = registry.as_dict()

    rows = []
    for counter, node_id in sorted(COUNTER_DRIVERS.items()):
        summary = model.summary(node_id)
        assert summary is not None, f"cost model lost hot node {node_id}"
        counts = [observed[n].get(counter, 0.0) for n in SIZES]
        assert all(c > 0 for c in counts), (
            f"{counter} never incremented -- wrong counter name or the "
            f"solver stopped exercising the flow layer"
        )
        slope = _fit_slope(SIZES, counts)
        rows.append(
            {
                "bench": "costmodel_validity",
                "counter": counter,
                "driver": node_id,
                "static_degree": summary.total_depth,
                "slope": round(slope, 3),
                "counts": counts,
                "sizes": list(SIZES),
            }
        )
        print(
            f"{counter}: slope {slope:.3f} vs static degree "
            f"{summary.total_depth} ({node_id})"
        )

        # Instance-sized: the model was right to count these loops.
        assert slope > SLOPE_MIN, (
            f"{counter} grew with slope {slope:.3f} <= {SLOPE_MIN}; the "
            f"counted loops in {node_id} look bounded, not instance-sized"
        )
        # Sound ceiling: observed growth never beats the static degree.
        assert slope <= summary.total_depth + SLOPE_TOLERANCE, (
            f"{counter} grew with slope {slope:.3f}, above the static "
            f"degree {summary.total_depth} of {node_id}: the cost model "
            f"is missing a loop on this path"
        )

    with open(BENCH_ROW_PATH, "a") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
