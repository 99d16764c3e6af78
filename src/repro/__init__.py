"""repro: Multicapacity Facility Selection in Networks (ICDE 2019).

A from-scratch reproduction of Logins, Karras & Jensen, *Multicapacity
Facility Selection in Networks*: the Wide Matching Algorithm (WMA), its
bipartite-matching and network substrates, the paper's baselines
(Hilbert, BRNN, WMA Naive), an exact MILP solver, and the data
generators and benchmarks behind every table and figure of the paper's
evaluation.

Quickstart
----------
>>> from repro import solve, MCFSInstance
>>> from repro.datagen import uniform_instance
>>> instance = uniform_instance(256, seed=7)
>>> solution = solve(instance, method="wma")
>>> solution.objective > 0
True

The :func:`solve` dispatcher accepts ``method`` in ``{"wma", "wma-uf",
"wma-naive", "hilbert", "brnn", "random", "exact"}``.
"""

from __future__ import annotations

from collections.abc import Callable

from repro import runtime
from repro.baselines import (
    solve_brnn,
    solve_exact,
    solve_hilbert,
    solve_kmedian_ls,
    solve_random,
    solve_wma_naive,
)
from repro.core import (
    MCFSInstance,
    MCFSSolution,
    WMASolver,
    WMATrace,
    evaluate_objective,
    refine_solution,
    solve_wma,
    solve_wma_refined,
    solve_wma_uniform_first,
    validate_solution,
)
from repro.errors import (
    BudgetExceeded,
    GraphError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    MatchingError,
    ReproError,
    SolverError,
)
from repro.network import Network
from repro.runtime import SolverOptions
from repro.serve import (
    CapacityChange,
    CustomerArrive,
    CustomerDepart,
    EdgeRetime,
    ServeEngine,
    ServeResult,
)

__version__ = "1.0.0"

SOLVERS: dict[str, Callable[..., MCFSSolution]] = {
    "wma": solve_wma,
    "wma-uf": solve_wma_uniform_first,
    "wma-naive": solve_wma_naive,
    "wma-ls": solve_wma_refined,
    "hilbert": solve_hilbert,
    "brnn": solve_brnn,
    "kmedian-ls": solve_kmedian_ls,
    "random": solve_random,
    "exact": solve_exact,
}


def solve(
    instance: MCFSInstance,
    method: str = "wma",
    *,
    options: SolverOptions | dict | None = None,
    deadline: float | None = None,
    fallback: object = None,
    **kwargs,
) -> MCFSSolution:
    """Solve an MCFS instance with the chosen algorithm.

    Parameters
    ----------
    instance:
        The problem instance.
    method:
        One of ``"wma"`` (the paper's algorithm), ``"wma-uf"`` (its
        Uniform-First variant), ``"wma-naive"``, ``"wma-ls"`` (WMA plus
        local-search refinement), ``"hilbert"``, ``"brnn"``,
        ``"random"``, or ``"exact"`` (MILP, small instances only).
    options:
        A :class:`SolverOptions` (or equivalent dict) accepted uniformly
        by every method: ``seed``, ``time_limit``, ``workers``,
        ``oracle``, plus solver-specific ``extras``.
    deadline:
        Overall wall-clock budget in seconds.  Implies fallback: when
        the budget expires (or the method fails), the runtime falls
        through the method's default chain (e.g. ``exact -> wma ->
        hilbert``) and still returns a feasible solution;
        ``solution.meta["runtime"]`` records what happened.
    fallback:
        Fallback chain control: ``None``/``"auto"`` use the default
        chain for ``method`` (only engaged when a deadline or time limit
        is set), ``False`` disables fallback, a comma-separated string
        or sequence gives an explicit chain.
    kwargs:
        Universal options given directly (e.g. ``seed`` for randomized
        baselines, ``time_limit`` for any method); they override the
        ``options`` fields.  Solver-specific options go in
        ``options.extras``; anything else raises
        :class:`~repro.errors.SolverError`.
    """
    if method not in SOLVERS:
        raise ValueError(
            f"unknown method {method!r}; choose from {sorted(SOLVERS)}"
        ) from None
    opts = runtime.normalize_options(method, options, kwargs)
    limit = deadline if deadline is not None else opts.time_limit
    if fallback is not None or limit is not None:
        chain = runtime.chain_for(method, fallback)
        if len(chain) > 1 or limit is not None:
            result = runtime.solve_with_fallback(
                instance, chain, deadline=deadline, options=opts
            )
            return result.solution
    return SOLVERS[method](instance, options=opts)


__all__ = [
    "solve",
    "SOLVERS",
    "SolverOptions",
    "runtime",
    "MCFSInstance",
    "MCFSSolution",
    "Network",
    "WMASolver",
    "WMATrace",
    "solve_wma",
    "solve_wma_uniform_first",
    "solve_wma_naive",
    "solve_wma_refined",
    "refine_solution",
    "ServeEngine",
    "ServeResult",
    "CustomerArrive",
    "CustomerDepart",
    "CapacityChange",
    "EdgeRetime",
    "solve_hilbert",
    "solve_brnn",
    "solve_kmedian_ls",
    "solve_random",
    "solve_exact",
    "evaluate_objective",
    "validate_solution",
    "ReproError",
    "GraphError",
    "InvalidInstanceError",
    "InfeasibleInstanceError",
    "MatchingError",
    "SolverError",
    "BudgetExceeded",
    "__version__",
]
