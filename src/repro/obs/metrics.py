"""Hierarchical counters, gauges, and timers behind a per-run registry.

The solvers are instrumented with *always-on* metrics: a module-level
active :class:`Registry` records named instruments, and hot paths batch
their updates (one ``Counter.add`` per Dijkstra run, not per heap pop),
so the enabled overhead stays in the noise (measured <1% wall-clock on
the Figure-6 benchmark sweep; the acceptance bar is <10%).

Names are hierarchical dotted strings (``"dijkstra.pops"``,
``"sspa.augmentations"``); the registry is flat but the convention keeps
reports greppable and lets exporters group by prefix.  The registry is
deliberately lock-free -- the solvers are single-threaded, and each run
gets its own registry (see :func:`use` and
:func:`repro.obs.profile.profile_solver`), so process-pool sweeps never
share one.

Usage::

    from repro.obs import metrics

    reg = metrics.Registry()
    with metrics.use(reg):
        solve(instance)                 # instrumented internals
    print(reg.as_dict()["dijkstra.pops"])

Instrumented code fetches instruments from the *active* registry at call
time (``metrics.active().counter("dijkstra.pops")``) -- never caches
them at import time -- so swapping registries is always safe.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increase the counter by ``n`` (must be non-negative)."""
        self.value += n

    inc = add

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time numeric metric (last value or running maximum)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        """Overwrite the gauge with ``v``."""
        self.value = v

    def set_max(self, v: float) -> None:
        """Raise the gauge to ``v`` if larger (peak tracking)."""
        if v > self.value:
            self.value = v

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Timer:
    """Accumulated monotonic wall-time over repeated observations."""

    __slots__ = ("name", "total", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        """Record one timed interval of ``seconds``."""
        self.total += seconds
        self.count += 1

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager measuring the enclosed block."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - t0)

    def __repr__(self) -> str:
        return f"Timer({self.name}: {self.total:.6f}s/{self.count})"


class Registry:
    """A flat namespace of instruments, one per solver run.

    Instruments are created on first use and cached by name, so repeated
    ``counter("dijkstra.pops")`` calls cost one dict lookup.  A name may
    hold only one instrument kind; asking for the same name with a
    different kind raises ``ValueError``.
    """

    __slots__ = ("_instruments", "_version")

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Timer] = {}
        self._version = 0

    def _get(self, name: str, cls: type[Any]) -> Any:
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif type(inst) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def timer(self, name: str) -> Timer:
        """The timer called ``name`` (created on first use)."""
        return self._get(name, Timer)

    def as_dict(self) -> dict[str, float]:
        """Flatten to ``{name: value}``, sorted by name.

        Timers contribute two keys: ``<name>.seconds`` (total) and
        ``<name>.calls`` (observation count).
        """
        out: dict[str, float] = {}
        for name, inst in self._instruments.items():
            if isinstance(inst, Timer):
                out[f"{name}.seconds"] = inst.total
                out[f"{name}.calls"] = inst.count
            else:
                out[name] = inst.value
        return dict(sorted(out.items()))

    def names(self) -> list[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def reset(self) -> None:
        """Drop every instrument (fresh-run state)."""
        self._instruments.clear()
        self._version += 1  # invalidates CounterBlock caches

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"Registry({len(self._instruments)} instruments)"


class CounterBlock:
    """A bundle of counters re-resolved only when the active registry changes.

    Hot flush sites (``incremental._advance``, ``sspa.find_pair``) look
    the same few counters up thousands of times per solve; the name
    lookups dominate the cost of the flush itself.  A ``CounterBlock``
    caches the resolved :class:`Counter` objects and revalidates with two
    cheap identity checks per call -- the active registry and its reset
    version -- so swapping registries (:func:`use`) or calling
    :meth:`Registry.reset` always takes effect on the next flush.
    """

    __slots__ = ("_names", "_reg", "_version", "_counters")

    def __init__(self, *names: str) -> None:
        self._names = names
        self._reg: Registry | None = None
        self._version = -1
        self._counters: tuple[Counter, ...] = ()

    def get(self) -> tuple[Counter, ...]:
        """The counters in declaration order, from the active registry."""
        reg = _active
        if reg is not self._reg or reg._version != self._version:
            self._reg = reg
            self._version = reg._version
            self._counters = tuple(reg.counter(n) for n in self._names)
        return self._counters


# ----------------------------------------------------------------------
# Active-registry management
# ----------------------------------------------------------------------
# There is always an active registry so instrumented code never branches
# on "is observability on".  The default registry is process-global and
# only consulted when no profiling scope is active.
_default = Registry()
_active = _default


def active() -> Registry:
    """The registry instrumented code should record into right now."""
    return _active


def default() -> Registry:
    """The process-global fallback registry."""
    return _default


@contextmanager
def use(registry: Registry) -> Iterator[Registry]:
    """Make ``registry`` the active one within the ``with`` block.

    Scopes nest; the previous registry is restored on exit, even on
    exceptions.
    """
    global _active
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous
