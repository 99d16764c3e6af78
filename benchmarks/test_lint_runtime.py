"""Benchmark: reprolint wall-clock on the repo's own source tree.

The static-analysis CI job runs the full rule set -- including the
whole-program call graph -- on every push, so its runtime is a
budget, not a curiosity: the lint must stay interactive.  This bench
runs the engine exactly as CI does (committed baseline, all default
rules) and appends a row to
``BENCH_lint.json`` recording the file count, the rule count, and the
wall-clock, so regressions in the whole-program tiers' cost show up as
a trend rather than a surprise CI timeout.

Run with:
    pytest benchmarks/test_lint_runtime.py -s
"""

from __future__ import annotations

import json
import os
import time

from repro.analysis import LintEngine, default_root, load_baseline
from repro.analysis.rules import default_rules

#: CI budget for one full-tree lint, in seconds.  A cold lint of the
#: 92-file tree measured a median 1.7s in-process (2.4s through
#: ``python -m repro.analysis``) on a 2-vCPU VM; 30s leaves room for
#: slow shared runners while still catching a blow-up in a
#: whole-program pass (which would be super-linear, not a constant
#: factor).
LINT_BUDGET_SEC = 30.0

BENCH_ROW_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_lint.json"
)


def test_full_tree_lint_within_budget():
    root = default_root()
    baseline_path = os.path.join(
        os.path.dirname(root), "reprolint-baseline.json"
    )
    baseline = load_baseline(baseline_path)
    rules = default_rules()

    started = time.perf_counter()
    result = LintEngine(root, rules=rules).run(baseline)
    wall_sec = time.perf_counter() - started

    row = {
        "bench": "lint_runtime_full_tree",
        "files": result.files_scanned,
        "rules": len(rules),
        "findings": len(result.new_findings),
        "suppressed": result.suppressed,
        "wall_sec": round(wall_sec, 4),
        "budget_sec": LINT_BUDGET_SEC,
    }
    with open(BENCH_ROW_PATH, "a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(
        f"\nreprolint: {result.files_scanned} files, {len(rules)} rules in "
        f"{wall_sec:.2f}s (budget {LINT_BUDGET_SEC:.0f}s)"
    )

    assert result.ok, [f.rule for f in result.findings]
    assert wall_sec < LINT_BUDGET_SEC
