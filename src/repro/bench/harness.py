"""Run solver line-ups on instances and collect comparable result rows.

The paper's figures plot, per algorithm, the objective value and runtime
against a swept parameter.  :func:`run_solvers` produces one
:class:`BenchRow` per algorithm per instance, handling the two failure
modes the paper reports: the exact solver timing out ("Gurobi failed")
and infeasibility.  Every successful solution is validated against the
instance before its row is trusted.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
from typing import Any, TextIO

from repro import SOLVERS
from repro.core.instance import MCFSInstance
from repro.core.validation import validate_solution
from repro.errors import ReproError, SolverError
from repro.obs import metrics as obs_metrics
from repro.obs.profile import jsonable

DEFAULT_METHODS = ("wma", "hilbert", "wma-naive", "exact")


@dataclass
class BenchRow:
    """One algorithm's outcome on one instance.

    ``metrics`` carries the run's observability counters (flattened
    :meth:`repro.obs.metrics.Registry.as_dict` output) so persisted
    benchmark JSON records *why* a run was fast or slow, not just how
    long it took.
    """

    label: str
    method: str
    objective: float | None
    runtime_sec: float | None
    status: str = "ok"
    params: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Whether the solver produced no usable solution."""
        return self.status != "ok"

    def cells(self) -> dict[str, Any]:
        """Flat dict for table formatting."""
        out: dict[str, Any] = {"instance": self.label, "method": self.method}
        out.update(self.params)
        out["objective"] = (
            round(self.objective, 1) if self.objective is not None else "fail"
        )
        out["runtime_s"] = (
            round(self.runtime_sec, 3) if self.runtime_sec is not None else "fail"
        )
        out["status"] = self.status
        return out

    def as_record(self) -> dict[str, Any]:
        """Full JSON-serializable form (the persisted benchmark row)."""
        return {
            "label": self.label,
            "method": self.method,
            "objective": self.objective,
            "runtime_sec": self.runtime_sec,
            "status": self.status,
            "params": dict(self.params),
            "meta": jsonable(self.meta),
            "metrics": dict(self.metrics),
        }


def save_rows(rows: Sequence[BenchRow], target: str | TextIO) -> None:
    """Persist benchmark rows (metrics included) as a JSON document."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            save_rows(rows, fh)
        return
    json.dump([r.as_record() for r in rows], target, indent=2, sort_keys=True)
    target.write("\n")


def load_rows(source: str | TextIO) -> list[BenchRow]:
    """Read rows written by :func:`save_rows`.

    Unknown keys are ignored, so rows persisted by a newer schema (with
    extra fields) still load instead of crashing the reader.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fh:
            return load_rows(fh)
    known = {f.name for f in fields(BenchRow)}
    return [
        BenchRow(**{k: v for k, v in record.items() if k in known})
        for record in json.load(source)
    ]


def solver_row(
    instance: MCFSInstance,
    method: str,
    *,
    label: str | None = None,
    params: dict[str, Any] | None = None,
    validate: bool = True,
    deadline: float | None = None,
    fallback: Any = None,
    **solver_kwargs,
) -> BenchRow:
    """Run one solver on one instance, never raising on solver failure.

    Exact-solver time-outs become ``status="timeout"`` rows (the paper's
    "Gurobi failed" entries); other library errors become
    ``status="error"`` rows carrying the message.

    ``deadline`` bounds the run's wall-clock and (with ``fallback``,
    default the method's chain) degrades through the runtime's fallback
    chain instead of failing; ``meta["runtime"]`` on the row records the
    attempts.  ``runtime_sec`` is then the whole chain's wall time.
    """
    label = label or instance.name
    params = dict(params or {})
    registry = obs_metrics.Registry()
    started = time.perf_counter()
    try:
        with obs_metrics.use(registry):
            if deadline is not None or fallback is not None:
                from repro import runtime

                opts = runtime.normalize_options(method, None, solver_kwargs)
                result = runtime.solve_with_fallback(
                    instance,
                    runtime.chain_for(method, fallback),
                    deadline=deadline,
                    options=opts,
                    validate=validate,
                )
                solution = result.solution
                return BenchRow(
                    label=label,
                    method=method,
                    objective=solution.objective,
                    runtime_sec=result.elapsed_sec,
                    status="ok",
                    params=params,
                    meta=dict(solution.meta),
                    metrics=registry.as_dict(),
                )
            solution = SOLVERS[method](instance, **solver_kwargs)
    except SolverError as exc:
        return BenchRow(
            label=label,
            method=method,
            objective=None,
            runtime_sec=time.perf_counter() - started,
            status="timeout",
            params=params,
            meta={"error": str(exc)},
            metrics=registry.as_dict(),
        )
    except ReproError as exc:
        return BenchRow(
            label=label,
            method=method,
            objective=None,
            runtime_sec=time.perf_counter() - started,
            status="error",
            params=params,
            meta={"error": str(exc)},
            metrics=registry.as_dict(),
        )
    if validate:
        validate_solution(instance, solution)
    return BenchRow(
        label=label,
        method=method,
        objective=solution.objective,
        runtime_sec=solution.runtime_sec,
        status="ok",
        params=params,
        meta=dict(solution.meta),
        metrics=registry.as_dict(),
    )


def run_solvers(
    instance: MCFSInstance,
    methods: Sequence[str] = DEFAULT_METHODS,
    *,
    label: str | None = None,
    params: dict[str, Any] | None = None,
    exact_time_limit: float | None = 60.0,
    validate: bool = True,
    seeds: dict[str, int] | None = None,
    workers: int | None = None,
    oracle: Any = None,
    deadline: float | None = None,
    fallback: Any = None,
) -> list[BenchRow]:
    """Run several solvers on an instance and return their rows.

    Parameters
    ----------
    instance:
        The instance all solvers share.
    methods:
        Solver names (keys of :data:`repro.SOLVERS`).
    exact_time_limit:
        Time budget passed to the ``exact`` method; a blown budget yields
        a ``timeout`` row rather than an exception.
    seeds:
        Optional per-method ``seed`` keyword (randomized baselines).
    workers:
        Process count passed to every method (universal option; only
        the solvers with a distance fan-out use it); objectives are
        identical for any count.
    oracle:
        Distance-oracle control passed to every method (universal
        option; see :func:`repro.network.oracle.resolve`).  ``"ch"``
        shares the instance network's default contraction hierarchy
        across the line-up; ``None`` defers to ``REPRO_ORACLE``.  Objectives are
        bit-identical to the kernel path, which is also the fastest
        for solves, so leave it off there (see the oracle table in
        ``docs/api.md``).
    deadline:
        Per-method wall-clock budget in seconds, enforced cooperatively
        by the runtime for *every* method; with ``fallback`` (default:
        each method's chain) a blown budget degrades to the next method
        instead of producing a failed row.
    fallback:
        Fallback-chain control per :func:`repro.runtime.chain_for`:
        ``None``/``"auto"`` for the default chains, ``False`` to
        disable, or an explicit comma-separated chain.
    """
    rows: list[BenchRow] = []
    for method in methods:
        kwargs: dict[str, Any] = {}
        if method == "exact" and exact_time_limit is not None:
            kwargs["time_limit"] = exact_time_limit
        if seeds and method in seeds:
            kwargs["seed"] = seeds[method]
        if workers is not None:
            kwargs["workers"] = workers
        if oracle is not None:
            kwargs["oracle"] = oracle
        rows.append(
            solver_row(
                instance,
                method,
                label=label,
                params=params,
                validate=validate,
                deadline=deadline,
                fallback=fallback,
                **kwargs,
            )
        )
    return rows


def best_objective(rows: Iterable[BenchRow]) -> float | None:
    """Smallest successful objective among the rows (None if all failed)."""
    values = [r.objective for r in rows if r.objective is not None]
    return min(values) if values else None


def objective_ratios(rows: Sequence[BenchRow]) -> dict[str, float]:
    """Each method's objective relative to the best in the group."""
    base = best_objective(rows)
    if base is None or base <= 0:
        return {}
    return {
        r.method: r.objective / base
        for r in rows
        if r.objective is not None
    }
