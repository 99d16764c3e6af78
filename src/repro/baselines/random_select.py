"""Random selection baseline (a sanity floor, not in the paper).

Selects ``k`` candidate facilities uniformly at random, repairs the
selection with Algorithm 5 when its per-component capacity is
insufficient, and assigns customers optimally.  Any serious heuristic
must beat this; the test suite uses it to confirm that WMA's selection
logic adds value beyond the shared optimal-matching machinery.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.instance import MCFSInstance
from repro.core.solution import MCFSSolution
from repro.core.validation import check_feasibility
from repro.core.wma import capacity_finalize
from repro.runtime.options import solver_api


@solver_api("random", uses=("seed",))
def solve_random(instance: MCFSInstance, *, seed: int = 0) -> MCFSSolution:
    """Random-selection + optimal-assignment baseline."""
    started = time.perf_counter()
    check_feasibility(instance)
    rng = np.random.default_rng(seed)

    selected = sorted(
        int(j) for j in rng.choice(instance.l, size=instance.k, replace=False)
    )
    selected, result, repaired = capacity_finalize(instance, selected)
    assignment = [selected[j_sub] for j_sub in result.assignment]
    runtime = time.perf_counter() - started
    return MCFSSolution(
        selected=tuple(selected),
        assignment=tuple(assignment),
        objective=result.cost,
        meta={
            "algorithm": "random",
            "runtime_sec": runtime,
            "selection_repaired": repaired,
        },
    )
