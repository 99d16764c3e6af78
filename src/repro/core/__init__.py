"""Core MCFS problem model and the Wide Matching Algorithm.

The modules in this subpackage map one-to-one onto the paper's Section IV:

* :mod:`repro.core.instance` / :mod:`repro.core.solution` -- problem and
  solution data model (objective (1) subject to (2)-(3)).
* :mod:`repro.core.wma` -- Algorithm 1, the main WMA loop.
* :mod:`repro.core.set_cover` -- Algorithm 3, the lazy greedy set-cover
  check with least-recently-used tie-breaking.
* :mod:`repro.core.provisions` -- Algorithms 4 and 5, the special
  provisions for under-full and under-covered selections.
* :mod:`repro.core.demand` -- the exploration-vector policies of
  Section IV-F.
* :mod:`repro.core.validation` -- feasibility audits and objective
  evaluation used by tests and benchmarks.
"""

from repro.core.demand import DemandPolicy, SelectiveDemandPolicy, UniformDemandPolicy
from repro.core.instance import MCFSInstance
from repro.core.local_search import RefinementReport, refine_solution, solve_wma_refined
from repro.core.provisions import cover_components, select_greedy
from repro.core.set_cover import CoverResult, check_cover
from repro.core.solution import MCFSSolution
from repro.core.throughput import (
    ThroughputResult,
    assign_with_throughput,
    congestion_profile,
)
from repro.core.validation import (
    check_feasibility,
    evaluate_objective,
    validate_solution,
)
from repro.core.wma import WMASolver, WMATrace, solve_wma, solve_wma_uniform_first

__all__ = [
    "MCFSInstance",
    "MCFSSolution",
    "WMASolver",
    "WMATrace",
    "solve_wma",
    "solve_wma_uniform_first",
    "evaluate_objective",
    "validate_solution",
    "check_feasibility",
    "DemandPolicy",
    "SelectiveDemandPolicy",
    "UniformDemandPolicy",
    "CoverResult",
    "check_cover",
    "cover_components",
    "select_greedy",
    "RefinementReport",
    "refine_solution",
    "solve_wma_refined",
    "ThroughputResult",
    "assign_with_throughput",
    "congestion_profile",
]
