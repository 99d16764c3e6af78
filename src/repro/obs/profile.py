"""Profile a solver run into one structured, comparable report.

:func:`profile_solver` wraps any registered solver with a fresh metrics
:class:`~repro.obs.metrics.Registry` and :class:`~repro.obs.tracing.Trace`
and returns a :class:`ProfileReport` unifying what used to be ad-hoc
diagnostics (``BipartiteState.edges_materialized``,
``BipartiteState.dijkstra_runs``, the timings inside ``WMATrace``) into
one vocabulary:

===============================  =============================================
counter                          meaning
===============================  =============================================
``dijkstra.runs/pops/...``       network-level Dijkstra work (all variants)
``incremental.*``                resumable nearest-facility stream work
``incremental.edges_materialized``  lazy ``G_b`` edges revealed
``sspa.augmentations``           FindPair augmenting paths applied
``sspa.dijkstra_runs/pops``      residual-graph Dijkstra work (heap searches only)
``set_cover.checks/heap_pops``   CheckCover invocations and lazy-heap pops
``oracle.queries/streams``       hierarchy queries and streams (zero on the kernel path)
``oracle.prunes``                SSPA stops certified by stream lower bounds (any kind)
``ch.upward_settles/...``        contraction-hierarchy sweep work
``bipartite.peak_edges``         peak ``G_b`` size (gauge)
===============================  =============================================

A FindPair call for a customer without a residual out-arc reveals its
next edge without a residual search (see
:func:`repro.flow.sspa._match_first_reveal`), and a search whose source
has a single arc into a facility with free capacity is answered
without a heap (see :func:`repro.flow.sspa._residual_dijkstra`).
``sspa.dijkstra_runs``, ``sspa.pops``, ``BipartiteState.dijkstra_runs``
and the solution's ``meta["dijkstra_runs"]`` count heap searches only.

Reports serialize to JSON (``repro profile`` in the CLI) and compare
against committed baselines so CI can gate on counter regressions; see
:func:`check_against_baseline` and ``benchmarks/baselines/smoke.json``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

from repro.network import oracle as network_oracle
from repro.obs import metrics, tracing


@dataclass
class ProfileReport:
    """Everything observed about one profiled solver run."""

    method: str
    instance: str
    objective: float
    runtime_sec: float
    metrics: dict[str, float]
    spans: list[dict[str, Any]]
    span_summary: dict[str, dict[str, float]]
    solution_meta: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Plain nested-dict form (JSON-ready)."""
        return {
            "method": self.method,
            "instance": self.instance,
            "objective": self.objective,
            "runtime_sec": self.runtime_sec,
            "metrics": self.metrics,
            "span_summary": self.span_summary,
            "spans": self.spans,
            "solution_meta": jsonable(self.solution_meta),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize the report to a JSON string."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


def jsonable(value: Any) -> Any:
    """Best-effort conversion of solver metadata to JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def profile_solver(
    instance: Any,
    method: str = "wma",
    *,
    registry: metrics.Registry | None = None,
    trace: tracing.Trace | None = None,
    validate: bool = True,
    workers: int | None = None,
    oracle: Any = None,
    **solver_kwargs: Any,
) -> ProfileReport:
    """Run ``method`` on ``instance`` under full observability.

    Parameters
    ----------
    instance:
        The :class:`~repro.core.instance.MCFSInstance` to solve.
    method:
        A key of :data:`repro.SOLVERS`.
    registry / trace:
        Optional pre-created sinks (to accumulate several runs into one);
        fresh ones are created by default.
    validate:
        Audit the solution with
        :func:`~repro.core.validation.validate_solution` inside the
        profiled scope (a ``validate`` span).  The audit recomputes the
        objective from raw network Dijkstras, so its ``dijkstra.*``
        counters appear in the report alongside the solver's own.
    workers:
        Process count forwarded to the solver (universal option; only
        the solvers with a distance fan-out use it).  The profiled
        objective is identical for any count.
    oracle:
        Distance-oracle control forwarded to the solver (universal
        option; see :func:`repro.network.oracle.resolve`; ``"ch"``
        enables the hierarchy).  ``None`` defers to the
        ``REPRO_ORACLE`` environment variable.  The ``oracle.*`` and
        ``ch.*`` counters are always primed in the report -- all zeros
        on the kernel path -- so dijkstra and oracle work read off one
        table.
    solver_kwargs:
        Forwarded to the solver (``seed``, ``time_limit``, ...).
    """
    # Local import: repro's __init__ imports obs-instrumented modules.
    from repro import SOLVERS, validate_solution

    solver = SOLVERS[method]
    reg = registry if registry is not None else metrics.Registry()
    tr = trace if trace is not None else tracing.Trace()
    if workers is not None:
        solver_kwargs = {**solver_kwargs, "workers": workers}
    # Resolve the oracle *before* entering the metrics scope: building
    # a hierarchy runs witness searches and bumps oracle.builds and
    # ch.shortcuts, which would otherwise land in this report (and trip
    # the baseline gate's zero ceilings).  Preprocessing is a
    # per-network one-off, not per-solve work.
    if oracle is False:
        solver_kwargs = {**solver_kwargs, "oracle": False}
    else:
        resolved = network_oracle.resolve(
            oracle, getattr(instance, "network", None)
        )
        if resolved is not None:
            solver_kwargs = {**solver_kwargs, "oracle": resolved}
    network_oracle.prime_counters(reg)

    started = time.perf_counter()
    with metrics.use(reg), tracing.use(tr):
        with tr.span("solve", method=method):
            solution = solver(instance, **solver_kwargs)
        if validate:
            with tr.span("validate"):
                validate_solution(instance, solution)
    elapsed = time.perf_counter() - started

    return ProfileReport(
        method=method,
        instance=getattr(instance, "name", "instance"),
        objective=float(solution.objective),
        runtime_sec=elapsed,
        metrics=reg.as_dict(),
        spans=tr.rows(),
        span_summary=tr.summary(),
        solution_meta=dict(solution.meta),
    )


def check_against_baseline(
    observed: dict[str, float],
    baseline: dict[str, float],
    *,
    tolerance: float = 0.2,
) -> list[str]:
    """Compare observed counters to committed baseline ceilings.

    A counter regresses when ``observed > baseline * (1 + tolerance)``.
    Only keys present in ``baseline`` are checked (the baseline pins the
    gated vocabulary; new counters never fail retroactively), but a
    baselined counter *missing* from ``observed`` is itself a violation
    -- deleting instrumentation must not silently pass the gate.

    Returns a list of human-readable violation strings (empty = pass).
    """
    violations: list[str] = []
    for name, base in sorted(baseline.items()):
        if name not in observed:
            violations.append(f"{name}: missing from observed metrics")
            continue
        ceiling = base * (1.0 + tolerance)
        got = observed[name]
        if got > ceiling:
            violations.append(
                f"{name}: observed {got:g} exceeds baseline {base:g} "
                f"by more than {tolerance:.0%} (ceiling {ceiling:g})"
            )
    return violations
