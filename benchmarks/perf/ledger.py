"""Agreement check between two sets of runs, and ledger rows.

A *run file* is JSON-lines, one row per benchmark run, as written by
``run.py --out FILE``::

    {"workload": ..., "seed": ..., "trace": 0, "result": {...}}

:func:`compare` judges every (workload, end-to-end metric) pair of two
run files against the metric's bound from ``BENCHMARK.json``;
:func:`summarize` condenses one run file into a ledger row.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
from collections import defaultdict
from typing import Any

Values = dict[tuple[str, str], dict[int, float]]

#: Metrics that must agree seed for seed.  The solution quality of a
#: given input is deterministic, so any change is a behaviour change; the
#: metric's bound in ``BENCHMARK.json`` only has to cover the spread
#: across seeds.
EXACT = frozenset({"mean_dist"})


def load_runs(path: str) -> tuple[Values, list[str]]:
    """Untraced metric values keyed by (workload, metric) then seed.

    Also returns one message per run that reported incorrect output.
    """
    values: Values = defaultdict(dict)
    failures = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            result = row["result"]
            if not result["correct"]:
                failures.append(
                    f"{path}: {row['workload']} seed {row['seed']} incorrect"
                )
            if row.get("trace", 0):
                continue
            for name, metric in result["metrics"].items():
                values[(row["workload"], name)][row["seed"]] = metric["value"]
    return values, failures


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(
    path_a: str, path_b: str, end_to_end: list[dict[str, Any]]
) -> tuple[list[str], int]:
    """Judge run file B against run file A; returns (report lines, exit code).

    A pair is ``worse`` when B's median is worse than A's by more than
    the bound, ``unresolved`` when either side's spread exceeds the
    bound, and ``ok`` otherwise; ``exact`` marks pairs whose values
    agree on every shared seed.  A metric of :data:`EXACT` that does not
    is ``inexact``, whatever its bound.  The exit code is 1 when any
    pair is worse or inexact, or any run was incorrect.
    """
    a, failures_a = load_runs(path_a)
    b, failures_b = load_runs(path_b)
    lines = failures_a + failures_b
    worse = bool(failures_a or failures_b)
    workloads = sorted({w for w, _ in a} | {w for w, _ in b})
    for workload in workloads:
        for spec in end_to_end:
            name, bound = spec["name"], spec["bound"]
            va, vb = a.get((workload, name)), b.get((workload, name))
            if not va or not vb:
                lines.append(f"{workload:24} {name:12} missing")
                worse = True
                continue
            med_a = statistics.median(va.values())
            med_b = statistics.median(vb.values())
            ratio = med_b / med_a
            change = ratio - 1 if spec["better"] == "lower" else 1 / ratio - 1
            worst_spread = max(spread(list(va.values())), spread(list(vb.values())))
            if change > bound:
                status = "worse"
                worse = True
            elif worst_spread > bound:
                status = "unresolved"
            else:
                status = "ok"
            common = va.keys() & vb.keys()
            if common and all(va[s] == vb[s] for s in common):
                status += " exact"
            elif name in EXACT:
                status = "inexact"
                worse = True
            lines.append(
                f"{workload:24} {name:12} {med_a:12.6g} -> {med_b:12.6g} "
                f"{spec['unit']:8} ratio {ratio:6.3f} (bound {bound:.2f}, "
                f"spread {worst_spread:.3f}) {status}"
            )
    return lines, 1 if worse else 0


def summarize(path: str, label: str) -> dict[str, Any]:
    """One ledger row: per workload and metric, median and quartiles."""
    values, failures = load_runs(path)
    workloads: dict[str, dict[str, Any]] = defaultdict(dict)
    for (workload, name), by_seed in sorted(values.items()):
        vals = list(by_seed.values())
        q1, _, q3 = (
            statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        )
        workloads[workload][name] = {
            "median": statistics.median(vals),
            "q1": q1,
            "q3": q3,
            "n": len(vals),
        }
    return {
        "label": label,
        "date": datetime.date.today().isoformat(),
        "host": f"{os.cpu_count()} cpu, python {platform.python_version()}",
        "correct": not failures,
        "workloads": dict(workloads),
    }
