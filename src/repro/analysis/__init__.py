"""reprolint -- the repo-specific static-analysis pass.

This package hosts the lint engine (``repro lint`` /
``python -m repro.analysis``): the rules in :mod:`repro.analysis.rules`
(REP001..REP004, REP101..REP104), :mod:`repro.analysis.pathrules`
(REP105..REP108) and :mod:`repro.analysis.perfrules` (REP110, REP111),
the whole-program graph layer in :mod:`repro.analysis.graphs` (import
graph, call graph, direct mutation inference, layering contract), the
ratchet baseline, and the CLI.  See ``docs/dev.md`` for the rule
catalogue and workflow.

Layering contract (enforced by REP102 on itself): ``analysis`` imports
nothing but the standard library at import time, so the linter runs
even on a tree that cannot import.  The *solution* analysis helpers
that used to live here (solution stats, demand-drift robustness) live
in :mod:`repro.bench.solution_stats` and :mod:`repro.bench.robustness`
(the deprecation shims that once forwarded the old names were removed
after two release cycles).
"""

from repro.analysis.baseline import load_baseline, save_baseline
from repro.analysis.engine import LintEngine, default_root
from repro.analysis.findings import Finding, LintResult
from repro.analysis.graphs import AnalysisProject

__all__ = [
    "AnalysisProject",
    "Finding",
    "LintEngine",
    "LintResult",
    "default_root",
    "load_baseline",
    "save_baseline",
]
