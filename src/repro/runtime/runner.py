"""Deadline-bounded solver execution with fallback chains.

:func:`solve_with_fallback` is the runtime's front door: it walks a
chain of solver methods (``exact -> wma -> hilbert``) under one shared
wall-clock :class:`~repro.runtime.budget.Budget`, records every attempt
as a :class:`SolverRun`, and returns the first feasible solution a
method produces.  An attempt that raises any
:class:`~repro.errors.ReproError` -- a budget expiry, an infeasibility
proof from the exact solver, a matching failure -- is recorded with its
reason and the chain falls through to the next method.

The last method of a chain runs inside a
:func:`~repro.runtime.budget.grace` scope, so even a fully consumed
deadline still yields an answer from the terminal (cheap) fallback;
default chains all end in ``hilbert``, which needs no budget
checkpoints.  Solution validation likewise runs under grace: it walks
the same checkpointed Dijkstra kernels as the solvers, and a validation
pass must never be killed by the deadline it is certifying.

Counters (``runtime.attempts``, ``runtime.fallbacks``,
``runtime.budget_exceeded``, ``runtime.degraded_returns``) and one span
per attempt go through the ambient :mod:`repro.obs` layer.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import BudgetExceeded, ReproError, SolverError
from repro.obs import metrics, tracing
from repro.runtime import budget as _budget, faults as _faults
from repro.runtime.options import SolverOptions, spec_for

__all__ = [
    "DEFAULT_CHAINS",
    "ChainResult",
    "SolverRun",
    "chain_for",
    "solve_with_fallback",
]

#: Default fallback chain per entry method.  Ordered strongest-first;
#: every chain ends in ``hilbert``, the checkpoint-free terminal
#: fallback that answers even on a fully consumed deadline.
DEFAULT_CHAINS: dict[str, tuple[str, ...]] = {
    "exact": ("exact", "wma", "hilbert"),
    "wma": ("wma", "hilbert"),
    "wma-uf": ("wma-uf", "wma", "hilbert"),
    "wma-ls": ("wma-ls", "wma", "hilbert"),
    "wma-naive": ("wma-naive", "hilbert"),
    "brnn": ("brnn", "hilbert"),
    "kmedian-ls": ("kmedian-ls", "hilbert"),
    "random": ("random", "hilbert"),
    "hilbert": ("hilbert",),
}


def chain_for(
    method: str, fallback: Any = None
) -> tuple[str, ...]:
    """Resolve a ``fallback=`` argument into a concrete method chain.

    ``None``, ``True``, or ``"auto"`` pick the default chain for
    ``method``; ``False`` or an empty sequence disable fallback (the
    chain is just ``(method,)``); a string is split on commas; any other
    sequence is taken as the explicit chain.  ``method`` itself always
    leads, and duplicates are dropped order-preservingly.
    """
    if fallback is None or fallback is True or fallback == "auto":
        return DEFAULT_CHAINS.get(method, (method, "hilbert"))
    if fallback is False:
        return (method,)
    if isinstance(fallback, str):
        parts = [p.strip() for p in fallback.split(",") if p.strip()]
    else:
        parts = [str(p) for p in fallback]
    if not parts:
        return (method,)
    chain = tuple(dict.fromkeys([method, *parts]))
    for m in chain:
        spec_for(m)  # raises SolverError for unknown methods
    return chain


@dataclass
class SolverRun:
    """Record of one attempt within a fallback chain."""

    method: str
    status: str  # "ok" | "timeout" | "error"
    elapsed_sec: float
    error: str | None = None
    degraded: bool = False


@dataclass
class ChainResult:
    """Outcome of a full :func:`solve_with_fallback` chain."""

    solution: Any
    method: str
    requested: str
    runs: list[SolverRun] = field(default_factory=list)
    elapsed_sec: float = 0.0

    @property
    def fallbacks(self) -> int:
        """How many methods failed before one answered."""
        return max(0, len(self.runs) - 1)

    @property
    def degraded(self) -> bool:
        """Whether the winning run returned a best-so-far solution."""
        return bool(self.runs and self.runs[-1].degraded)


def _attempt_options(method: str, opts: SolverOptions) -> SolverOptions:
    """Narrow chain-level options to what one attempt should receive.

    Every universal option carries through except ``time_limit``, which
    is stripped because the chain budget, already active, governs every
    attempt -- re-entering it per attempt would reset the clock.  Extras
    belonging to other methods are dropped (an ``exact`` chain's
    ``mip_gap`` means nothing to ``wma``).
    """
    spec = spec_for(method)
    extras = {k: v for k, v in opts.extras.items() if k in spec.extras}
    return replace(opts, time_limit=None, extras=extras)


def solve_with_fallback(
    instance: Any,
    methods: Sequence[str] | str,
    *,
    deadline: float | None = None,
    options: SolverOptions | None = None,
    validate: bool = True,
) -> ChainResult:
    """Solve ``instance`` by the first method of ``methods`` that succeeds.

    Parameters
    ----------
    instance:
        The :class:`~repro.core.instance.MCFSInstance` to solve.
    methods:
        The fallback chain, e.g. ``("exact", "wma", "hilbert")``; a bare
        string is treated as a single-method chain.
    deadline:
        Overall wall-clock budget in seconds shared by the whole chain.
        Falls back to ``options.time_limit``; ``None`` means unbounded.
    options:
        Chain-level :class:`SolverOptions`; extras are forwarded only to
        the methods that declare them.
    validate:
        Check each produced solution with
        :func:`~repro.core.validation.validate_solution` before
        accepting it; a failing solution counts as a failed attempt and
        the chain falls through.

    Returns
    -------
    ChainResult
        The winning solution plus per-attempt :class:`SolverRun`
        records.  ``solution.meta["runtime"]`` summarizes the chain.

    Raises
    ------
    ReproError
        Only when *every* method of the chain failed; the last error is
        re-raised.
    """
    from repro import SOLVERS  # local: repro.__init__ imports this module

    chain = (methods,) if isinstance(methods, str) else tuple(methods)
    if not chain:
        raise SolverError("fallback chain is empty")
    for m in chain:
        spec_for(m)

    opts = SolverOptions.coerce(options)
    limit = deadline if deadline is not None else opts.time_limit
    plan = _faults.active()
    registry = metrics.active()
    runs: list[SolverRun] = []
    started = time.perf_counter()
    last_exc: ReproError | None = None

    def attempt(idx: int, method: str) -> Any:
        registry.counter("runtime.attempts").add()
        if plan is not None:
            plan.raise_for_attempt(method, idx)
        solver = SOLVERS[method]
        attempt_opts = _attempt_options(method, opts)
        solution = solver(instance, options=attempt_opts)
        if validate:
            from repro.core.validation import validate_solution

            with _budget.grace():
                validate_solution(instance, solution)
        return solution

    def run_chain() -> ChainResult:
        nonlocal last_exc
        for idx, method in enumerate(chain):
            final = idx == len(chain) - 1
            t0 = time.perf_counter()
            try:
                with tracing.span(f"runtime.attempt.{method}"):
                    if final and len(chain) > 1:
                        # Terminal fallback must answer even with the
                        # deadline fully consumed.
                        with _budget.grace():
                            solution = attempt(idx, method)
                    else:
                        solution = attempt(idx, method)
            except ReproError as exc:
                elapsed = time.perf_counter() - t0
                status = (
                    "timeout" if isinstance(exc, BudgetExceeded) else "error"
                )
                runs.append(
                    SolverRun(
                        method=method,
                        status=status,
                        elapsed_sec=elapsed,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                last_exc = exc
                if not final:
                    registry.counter("runtime.fallbacks").add()
                continue
            elapsed = time.perf_counter() - t0
            degraded = bool(getattr(solution, "meta", {}).get("degraded"))
            runs.append(
                SolverRun(
                    method=method,
                    status="ok",
                    elapsed_sec=elapsed,
                    degraded=degraded,
                )
            )
            total = time.perf_counter() - started
            solution.meta["runtime"] = {
                "requested": chain[0],
                "method_used": method,
                "fallbacks": len(runs) - 1,
                "degraded": degraded,
                "attempts": [
                    {
                        "method": r.method,
                        "status": r.status,
                        "elapsed_sec": r.elapsed_sec,
                        "error": r.error,
                    }
                    for r in runs
                ],
                "deadline": limit,
            }
            return ChainResult(
                solution=solution,
                method=method,
                requested=chain[0],
                runs=runs,
                elapsed_sec=total,
            )
        assert last_exc is not None
        raise last_exc

    with tracing.span("runtime.chain"):
        if limit is not None:
            with _budget.use(_budget.Budget(float(limit))):
                return run_chain()
        return run_chain()
