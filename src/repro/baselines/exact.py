"""Exact MILP solver for MCFS (the paper's Gurobi stand-in).

The paper formulates MCFS as the integer program (1)-(3):

.. math::

    \\min \\sum_i \\sum_j d_{ij} y_{ij}

subject to ``sum_j y_ij = 1`` (each customer served once),
``sum_i y_ij <= c_j x_j`` (capacity, which also forces ``y_ij <= x_j``
for binary variables), and ``sum_j x_j <= k`` (budget).

We solve it with HiGHS via :func:`scipy.optimize.milp`.  Distances
``d_ij`` are computed over the network with one early-exit Dijkstra per
customer; pairs in different components are dropped from the variable
set.  Exactly like Gurobi in the paper, this solver is only practical on
small candidate sets -- the benchmarks report its runtime wall and
declare it *failed* past a time budget.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.instance import MCFSInstance
from repro.core.solution import MCFSSolution
from repro.errors import InfeasibleInstanceError, SolverError
from repro.network.dijkstra import distance_matrix
from repro.runtime.budget import active as active_budget, checkpoint
from repro.runtime.options import solver_api

ExactSolution = MCFSSolution


def _build_problem(instance: MCFSInstance, workers: int | None = None):
    """Assemble the sparse MILP data.

    Returns ``(costs, constraints, n_x, pairs)`` where variables are laid
    out as ``x_0..x_{l-1}`` followed by one ``y`` per finite customer-
    facility pair, and ``pairs`` lists the ``(i, j)`` of each y-variable.
    The distance matrix dominates build time on large instances; it fans
    out over ``workers`` processes when requested.
    """
    dist = distance_matrix(
        instance.network,
        list(instance.customers),
        list(instance.facility_nodes),
        workers=workers,
    )
    m, l = instance.m, instance.l

    pairs: list[tuple[int, int]] = []
    costs_y: list[float] = []
    for i in range(m):
        checkpoint()
        reachable = np.flatnonzero(np.isfinite(dist[i]))
        if reachable.size == 0:
            raise InfeasibleInstanceError(
                f"customer {i} cannot reach any candidate facility"
            )
        for j in reachable:
            pairs.append((i, int(j)))
            costs_y.append(float(dist[i, j]))

    n_y = len(pairs)
    n_var = l + n_y
    costs = np.concatenate([np.zeros(l), np.array(costs_y)])

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    n_rows = 0

    # sum_j y_ij = 1 for each customer (rows 0..m-1).
    for idx, (i, _j) in enumerate(pairs):
        rows.append(i)
        cols.append(l + idx)
        vals.append(1.0)
    n_rows += m

    # sum_i y_ij - c_j x_j <= 0 for each facility (rows m..m+l-1).
    for idx, (_i, j) in enumerate(pairs):
        rows.append(m + j)
        cols.append(l + idx)
        vals.append(1.0)
    for j in range(l):
        rows.append(m + j)
        cols.append(j)
        vals.append(-float(instance.capacities[j]))
    n_rows += l

    # sum_j x_j <= k (last row).
    for j in range(l):
        rows.append(n_rows)
        cols.append(j)
        vals.append(1.0)
    n_rows += 1

    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(n_rows, n_var)
    )
    lower = np.concatenate(
        [np.ones(m), np.full(l, -np.inf), [-np.inf]]
    )
    upper = np.concatenate([np.ones(m), np.zeros(l), [float(instance.k)]])
    constraint = LinearConstraint(matrix, lower, upper)
    return costs, constraint, n_var, pairs


@solver_api("exact", uses=("time_limit", "workers"), extras=("mip_gap",))
def solve_exact(
    instance: MCFSInstance,
    *,
    time_limit: float | None = None,
    mip_gap: float = 0.0,
    workers: int | None = None,
) -> MCFSSolution:
    """Solve MCFS to optimality with HiGHS.

    Parameters
    ----------
    instance:
        The problem to solve.
    time_limit:
        Optional wall-clock budget in seconds (HiGHS option); the solver
        raises :class:`SolverError` when it runs out before proving
        optimality -- the benchmarks catch this and report *failed*, as
        the paper does for Gurobi runs beyond 24 hours.
    mip_gap:
        Relative MIP gap at which HiGHS may stop (0 = prove optimality).
    workers:
        Process count for the distance-matrix fan-out (default: the
        ``REPRO_WORKERS`` environment variable, else serial).  The MILP
        itself stays single-process; distances are identical regardless.

    Raises
    ------
    InfeasibleInstanceError
        When HiGHS proves the instance infeasible.
    SolverError
        On time-out or unexpected backend failure.
    """
    started = time.perf_counter()
    costs, constraint, n_var, pairs = _build_problem(instance, workers)
    # HiGHS cannot be checkpointed, so hand it whatever wall-clock the
    # active cooperative budget has left (the distance build above may
    # have consumed part of it).
    budget = active_budget()
    if budget is not None:
        remaining = max(0.01, budget.remaining())
        time_limit = (
            remaining if time_limit is None
            else min(float(time_limit), remaining)
        )
    options: dict[str, float] = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap:
        options["mip_rel_gap"] = float(mip_gap)

    result = milp(
        c=costs,
        constraints=constraint,
        integrality=np.ones(n_var),
        bounds=Bounds(0.0, 1.0),
        options=options or None,
    )
    runtime = time.perf_counter() - started

    if result.status == 2:
        raise InfeasibleInstanceError("MILP proved the instance infeasible")
    if result.status == 1 or result.x is None:
        raise SolverError(
            f"exact solver did not finish (status={result.status}: "
            f"{result.message})"
        )

    l = instance.l
    x = result.x[:l]
    y = result.x[l:]
    selected = tuple(int(j) for j in np.flatnonzero(x > 0.5))
    assignment = [-1] * instance.m
    for idx, (i, j) in enumerate(pairs):
        if y[idx] > 0.5:
            assignment[i] = j
    if any(j < 0 for j in assignment):
        raise SolverError("MILP returned an incomplete assignment")

    # Drop selected-but-unused facilities (HiGHS may open a facility the
    # assignment never touches when it is cost-free to do so).
    used = set(assignment)
    selected = tuple(j for j in selected if j in used)

    return MCFSSolution(
        selected=selected,
        assignment=tuple(assignment),
        objective=float(result.fun),
        meta={
            "algorithm": "exact",
            "runtime_sec": runtime,
            "mip_gap": result.mip_gap if hasattr(result, "mip_gap") else 0.0,
            "n_variables": n_var,
        },
    )


def lp_lower_bound(instance: MCFSInstance) -> float:
    """Objective of the LP relaxation of (1)-(3), as :func:`solve_exact` states it.

    The relaxation keeps the same rows -- ``sum_j y_ij = 1``,
    ``sum_i y_ij <= c_j x_j`` and ``sum_j x_j <= k`` -- with every
    variable in ``[0, 1]``.  There are no ``y_ij <= x_j`` rows: binary
    ``x`` makes them redundant in the integer program, but the
    relaxation can open ``x_j = 1/c_j`` under a customer and serve it at
    distance 0.  So the bound is weak, and it is 0.0 whenever every
    customer sits on a candidate node and those fractional openings fit
    in the budget ``k``: ``uniform_instance(128, seed=0)`` gets 0.0
    against a WMA objective of 4842.24.

    Still a valid lower bound on the optimal MCFS objective.  Only
    ``tests/test_exact.py`` uses it, as a sanity check.
    """
    costs, constraint, n_var, _ = _build_problem(instance)
    result = milp(
        c=costs,
        constraints=constraint,
        integrality=np.zeros(n_var),
        bounds=Bounds(0.0, 1.0),
    )
    if result.x is None:
        raise SolverError(f"LP relaxation failed: {result.message}")
    return float(result.fun)
