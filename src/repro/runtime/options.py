"""The unified solver options API.

Historically every ``solve_*`` entry point grew its own keyword surface:
``solve_hilbert(instance)`` took nothing, ``solve_random`` took only
``seed``, and ``time_limit`` existed only on the exact solver.
:class:`SolverOptions` normalizes that surface: one dataclass carrying
the *universal* options every solver accepts (``seed``, ``time_limit``,
``workers``, ``oracle``) plus an ``extras`` dict for solver-specific
knobs (``tie_breaking``, ``mip_gap``, ``pool_size``, ...).

Entry points are declared with the :func:`solver_api` decorator, which

* accepts ``options=SolverOptions(...)`` (or an equivalent dict) and
  direct universal keyword arguments uniformly on every solver;
* rejects any other keyword -- a solver-specific one included, which
  belongs in ``extras`` -- with a :class:`~repro.errors.SolverError`
  naming the valid options for that method;
* installs the cross-cutting scopes implied by the options: a
  cooperative :class:`~repro.runtime.budget.Budget` for ``time_limit``
  and a distance-oracle scope for ``oracle``.

Universal options a particular solver has no use for (``seed`` on the
deterministic exact solver, ``workers`` on serial heuristics) are
accepted and ignored, so callers can hold one ``SolverOptions`` and pass
it to any method -- the property fallback chains rely on.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator, Mapping
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.errors import SolverError
from repro.runtime.budget import Budget, use as use_budget

__all__ = [
    "SolverOptions",
    "MethodSpec",
    "UNIVERSAL_OPTIONS",
    "normalize_options",
    "registered_methods",
    "solver_api",
    "spec_for",
    "valid_options",
]

#: Options every solver entry point accepts (ignored where meaningless).
UNIVERSAL_OPTIONS = ("seed", "time_limit", "workers", "oracle")


@dataclass
class SolverOptions:
    """Options accepted uniformly by every ``solve_*`` entry point.

    Attributes
    ----------
    seed:
        Seed for randomized solvers (``wma-naive``, ``random``,
        ``kmedian-ls``, ``wma-ls``); ignored by deterministic ones.
    time_limit:
        Cooperative wall-clock budget in seconds, enforced for *every*
        method through :mod:`repro.runtime.budget` (the exact solver
        additionally forwards it to HiGHS).  Solvers holding a feasible
        partial result return a degraded best-so-far solution when the
        budget expires; others raise :class:`~repro.errors.BudgetExceeded`.
    workers:
        Process count for the distance fan-out of worker-aware solvers
        (see :mod:`repro.network.parallel`); ignored by the rest.
    oracle:
        Distance-oracle control (:mod:`repro.network.oracle`): ``True``
        or ``"alt"`` solves under the instance network's default ALT
        oracle and ``"ch"`` under its default contraction hierarchy
        (each built or loaded once per network), an
        :class:`~repro.network.oracle.AltOracle` or
        :class:`~repro.network.ch.ContractionHierarchy` instance is
        used as-is after a fingerprint check, ``False``/``"off"``
        disables, and the default ``None`` defers to the
        ``REPRO_ORACLE`` environment variable (``alt|ch|off``).
        Oracle-served distances are bit-identical to kernel Dijkstra
        runs, so objectives never depend on this knob.
    extras:
        Solver-specific options (e.g. ``tie_breaking`` for WMA,
        ``mip_gap`` for exact, ``pool_size`` for ``kmedian-ls``).  Keys
        are validated against the target method; unknown keys raise
        :class:`~repro.errors.SolverError`.
    """

    seed: int | None = None
    time_limit: float | None = None
    workers: int | None = None
    oracle: Any = None
    extras: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def coerce(cls, value: SolverOptions | Mapping[str, Any] | None) -> SolverOptions:
        """Build a :class:`SolverOptions` from ``None``, a dict, or itself.

        Dict keys that are not dataclass fields land in ``extras``, so
        ``{"seed": 1, "tie_breaking": "cost"}`` round-trips naturally.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            known = {f.name for f in fields(cls)}
            kw: dict[str, Any] = {
                k: v for k, v in value.items() if k in known
            }
            extras = {k: v for k, v in value.items() if k not in known}
            extras.update(dict(kw.get("extras") or {}))
            kw["extras"] = extras
            return cls(**kw)
        raise SolverError(
            f"options must be a SolverOptions or a mapping, "
            f"got {type(value).__name__}"
        )

    def merged(self, **overrides: Any) -> SolverOptions:
        """Copy with ``overrides`` applied (``extras`` merge, not replace)."""
        extras = dict(self.extras)
        extras.update(overrides.pop("extras", {}))
        return replace(self, extras=extras, **overrides)


@dataclass(frozen=True)
class MethodSpec:
    """Declared option surface of one registered solver method.

    ``uses`` lists the universal options the implementation actually
    consumes (forwarded as keyword arguments); the others are accepted
    and ignored.  ``extras`` lists the solver-specific keywords.
    """

    method: str
    uses: frozenset[str]
    extras: frozenset[str]


_SPECS: dict[str, MethodSpec] = {}


def registered_methods() -> list[str]:
    """Names of all methods declared through :func:`solver_api`."""
    return sorted(_SPECS)


def spec_for(method: str) -> MethodSpec:
    """The :class:`MethodSpec` of ``method``.

    Raises
    ------
    SolverError
        When ``method`` was never declared via :func:`solver_api`.
    """
    try:
        return _SPECS[method]
    except KeyError:
        raise SolverError(
            f"unknown solver method {method!r}; registered methods: "
            f"{', '.join(registered_methods())}"
        ) from None


def valid_options(method: str) -> list[str]:
    """Every option name ``method`` accepts (universal + extras), sorted."""
    spec = spec_for(method)
    return sorted(UNIVERSAL_OPTIONS) + sorted(spec.extras)


def normalize_options(
    method: str,
    options: SolverOptions | Mapping[str, Any] | None = None,
    kwargs: Mapping[str, Any] | None = None,
) -> SolverOptions:
    """Merge ``options`` and direct keyword arguments for ``method``.

    Universal keywords (``seed``, ``time_limit``, ``workers``,
    ``oracle``) override the corresponding ``options`` fields.  Any
    other keyword -- a solver-specific one included, which belongs in
    ``options.extras`` -- raises :class:`~repro.errors.SolverError`
    naming the valid options for ``method``.
    """
    spec = spec_for(method)
    opts = SolverOptions.coerce(options)

    unknown = sorted(set(opts.extras) - spec.extras)
    if unknown:
        raise SolverError(
            f"solver {method!r} does not accept extra option(s) "
            f"{', '.join(repr(u) for u in unknown)}; valid options for "
            f"{method!r}: {', '.join(valid_options(method))}"
        )

    updates: dict[str, Any] = {}
    for key, value in (kwargs or {}).items():
        if key not in UNIVERSAL_OPTIONS:
            raise SolverError(
                f"solver {method!r} got unknown keyword {key!r}; valid "
                f"options for {method!r}: {', '.join(valid_options(method))} "
                f"(solver-specific ones go in options=SolverOptions(extras=...))"
            )
        updates[key] = value
    return replace(opts, **updates)


@contextmanager
def option_scopes(
    opts: SolverOptions, instance: Any = None
) -> Iterator[None]:
    """Enter the cross-cutting scopes implied by ``opts``.

    ``time_limit`` installs a cooperative :class:`Budget` (clamped to any
    enclosing budget); ``oracle`` (resolved against ``instance.network``,
    including the ``REPRO_ORACLE`` environment default) installs a
    distance-oracle scope of the resolved kind.  Both are no-ops when
    unset.
    """
    with ExitStack() as stack:
        if opts.time_limit is not None:
            stack.enter_context(use_budget(Budget(float(opts.time_limit))))
        if opts.oracle is not False:
            # Local import: the oracle pulls in the network stack, which
            # must stay importable without repro.runtime and vice versa.
            from repro.network import oracle as oracle_mod

            resolved = oracle_mod.resolve(
                opts.oracle, getattr(instance, "network", None)
            )
            if resolved is not None:
                stack.enter_context(oracle_mod.use(resolved))
        yield


def solver_api(
    method: str,
    *,
    uses: tuple[str, ...] = (),
    extras: tuple[str, ...] = (),
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Declare a ``solve_*`` function as a normalized solver entry point.

    The wrapped function keeps its original signature for internal use;
    the public entry accepts ``(instance, *, options=None, **kwargs)``,
    normalizes via :func:`normalize_options`, enters the option scopes,
    and forwards only the universal options named in ``uses`` plus the
    validated ``extras`` to the implementation.

    The wrapper carries ``__solver_method__`` and ``__solver_spec__``
    attributes for introspection (the signature-consistency tests).
    """
    bad = sorted(set(uses) - set(UNIVERSAL_OPTIONS))
    if bad:
        raise ValueError(f"uses must name universal options, got {bad}")
    spec = MethodSpec(method, frozenset(uses), frozenset(extras))

    def decorate(inner: Callable[..., Any]) -> Callable[..., Any]:
        _SPECS[method] = spec

        @functools.wraps(inner)
        def entry(instance: Any, *, options: Any = None, **kwargs: Any) -> Any:
            opts = normalize_options(method, options, kwargs)
            call: dict[str, Any] = {}
            for name in spec.uses:
                value = getattr(opts, name)
                if value is not None:
                    call[name] = value
            call.update(opts.extras)
            with option_scopes(opts, instance):
                return inner(instance, **call)

        entry.__solver_method__ = method  # type: ignore[attr-defined]
        entry.__solver_spec__ = spec  # type: ignore[attr-defined]
        return entry

    return decorate
