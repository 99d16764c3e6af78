"""Cooperative wall-clock budgets for deadline-bounded solver runs.

A :class:`Budget` is a deadline plus a cheap checkpoint protocol.  Solver
hot loops call the module-level :func:`checkpoint` -- a no-op costing one
global load and a ``None`` check when no budget is installed -- and the
active budget raises :class:`~repro.errors.BudgetExceeded` at the first
checkpoint past its deadline.  Enforcement is *cooperative*: nothing is
interrupted mid-operation, so solver state is always consistent when the
exception fires, and solvers that hold a feasible partial result can
catch it and salvage a best-so-far solution inside a :func:`grace` scope
(which suspends enforcement for the salvage phase).

Checkpoints are placed at per-heavy-operation granularity (one Dijkstra
run, one WMA iteration, one local-search trial), so the enabled overhead
is one ``time.perf_counter`` read per operation -- well under 1% -- and
budget-free runs pay only the ``None`` check.

Scoping follows the :mod:`repro.obs.metrics` pattern: :func:`use`
installs a budget for a ``with`` block, :func:`active` returns the
current one.  Nested budgets never *extend* an enclosing deadline --
entering a scope clamps the inner deadline to the outer one -- so a
fallback chain's overall deadline always dominates per-solver limits.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager

from repro.errors import BudgetExceeded
from repro.obs import metrics

__all__ = [
    "Budget",
    "BudgetExceeded",
    "active",
    "checkpoint",
    "grace",
    "use",
]

_active: Budget | None = None

#: Seconds slept on every deadline check; set by :mod:`repro.runtime.faults`
#: to simulate slow Dijkstra sweeps.  Always 0.0 outside fault scopes.
_fault_delay: float = 0.0


def _set_fault_delay(seconds: float) -> float:
    """Install an injected per-check delay; returns the previous value."""
    global _fault_delay
    previous = _fault_delay
    _fault_delay = max(0.0, float(seconds))
    return previous


class Budget:
    """A wall-clock deadline checked cooperatively from solver hot loops.

    Parameters
    ----------
    seconds:
        Budget length; the deadline is ``now + seconds``.  Non-positive
        values produce an already-expired budget (the next checkpoint
        raises), which is how a fallback chain handles a method whose
        predecessors consumed the whole deadline.
    """

    __slots__ = ("limit", "started", "deadline")

    def __init__(self, seconds: float) -> None:
        self.limit = float(seconds)
        self.started = time.perf_counter()
        self.deadline = self.started + self.limit

    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return time.perf_counter() - self.started

    def remaining(self) -> float:
        """Seconds until the deadline (negative once expired)."""
        return self.deadline - time.perf_counter()

    def expired(self) -> bool:
        """Whether the deadline has passed (no exception raised)."""
        return time.perf_counter() >= self.deadline

    def check(self) -> None:
        """Read the clock and raise :class:`BudgetExceeded` past deadline."""
        if _fault_delay:
            time.sleep(_fault_delay)
        if time.perf_counter() >= self.deadline:
            metrics.active().counter("runtime.budget_exceeded").add()
            raise BudgetExceeded(
                f"wall-clock budget of {self.limit:.3f}s exhausted "
                f"({self.elapsed():.3f}s elapsed)"
            )

    def __repr__(self) -> str:
        return (
            f"Budget(limit={self.limit:.3f}s, "
            f"remaining={self.remaining():.3f}s)"
        )


def active() -> Budget | None:
    """The budget hot loops should honor right now (``None`` = unbounded)."""
    return _active


def checkpoint() -> None:
    """Cooperative deadline checkpoint for solver hot loops.

    A no-op when no budget is active; otherwise forwards to the active
    budget's :meth:`Budget.check`, which raises
    :class:`~repro.errors.BudgetExceeded` once the deadline has passed.
    """
    b = _active
    if b is not None:
        b.check()


@contextmanager
def use(budget: Budget) -> Iterator[Budget]:
    """Install ``budget`` as the active one within the ``with`` block.

    Scopes nest; an inner budget may only *shorten* the effective
    deadline (it is clamped to the enclosing one on entry), so an outer
    chain deadline always dominates per-solver ``time_limit`` scopes.
    """
    global _active
    previous = _active
    if previous is not None and previous.deadline < budget.deadline:
        budget.deadline = previous.deadline
    _active = budget
    try:
        yield budget
    finally:
        _active = previous


@contextmanager
def grace() -> Iterator[None]:
    """Suspend deadline enforcement within the ``with`` block.

    Used for salvage phases (turning an interrupted run into a feasible
    best-so-far solution), for validating an already-produced solution,
    and for a fallback chain's terminal attempt -- work that must finish
    to uphold the "always return something feasible" contract.
    """
    global _active
    previous = _active
    _active = None
    try:
        yield
    finally:
        _active = previous
