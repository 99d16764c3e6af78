"""Outside-in per-layer time attribution for the traced benchmark run.

The program is not edited: for the duration of one traced repetition
:func:`instrument` replaces the public entry points of each layer with
wrappers that enter and leave that layer on a :class:`LayerClock`, an
exclusive-time stack.  A layer's *self* time is the time the stack spent
with that layer on top, so the self times of all layers (with ``bench``
at the root for the benchmark's own code) sum to the traced wall time.

Coarse spans -- the repetition root, each ``apply`` batch and each
``check_cover`` -- are recorded into a :class:`repro.obs.tracing.Trace`
that is never made the active trace, so the solver's own internal spans
stay off.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.core import wma
from repro.flow import sspa
from repro.network import ch, incremental
from repro.obs.tracing import Trace
from repro.serve import engine

ROOT = "bench"
LAYERS = (
    "network",
    "flow",
    "core.set_cover",
    "core.provisions",
    "core.wma",
    "serve",
    ROOT,
)


class LayerClock:
    """Exclusive-time stack: charges elapsed time to the innermost layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[str] = []
        self._mark = 0.0

    def push(self, layer: str) -> None:
        now = time.perf_counter()
        if self._stack:
            self.self_s[self._stack[-1]] += now - self._mark
        self._stack.append(layer)
        self.calls[layer] += 1
        self._mark = now

    def pop(self) -> None:
        now = time.perf_counter()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now


def targets() -> list[tuple[Any, str, str, str | None]]:
    """``(owner, attribute, layer, span name)`` for every wrapped entry point.

    Functions imported by name are wrapped at each importing module, so
    calls through any of them are seen.  Stream ``facility_at`` calls
    that hit the stream's memo are passed through untimed (see
    :func:`_wrap_stream`).
    """
    return [
        (incremental.NearestFacilityStream, "facility_at", "network", None),
        (ch.CHFacilityStream, "facility_at", "network", None),
        (ch.CHFacilityStream, "__init__", "network", None),
        (sspa, "find_pair", "flow", None),
        (sspa, "rebuild_rows", "flow", None),
        (sspa, "assign_all", "flow", None),
        (wma, "find_pair", "flow", None),
        (wma, "assign_all", "flow", None),
        (engine, "find_pair", "flow", None),
        (engine, "rebuild_rows", "flow", None),
        (wma, "check_cover", "core.set_cover", "core.check_cover"),
        (wma, "select_greedy", "core.provisions", None),
        (wma, "cover_components", "core.provisions", None),
        (wma.WMASolver, "solve", "core.wma", None),
        (engine.ServeEngine, "__init__", "serve", None),
        (engine.ServeEngine, "apply", "serve", "serve.apply"),
    ]


def _wrap(
    fn: Callable[..., Any], clock: LayerClock, layer: str,
    trace: Trace, span: str | None,
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        clock.push(layer)
        try:
            if span is None:
                return fn(*args, **kwargs)
            with trace.span(span):
                return fn(*args, **kwargs)
        finally:
            clock.pop()

    return wrapper


def _wrap_stream(
    fn: Callable[..., Any], clock: LayerClock, layer: str
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def facility_at(stream: Any, rank: int) -> Any:
        if rank < len(stream.found):
            return fn(stream, rank)
        clock.push(layer)
        try:
            return fn(stream, rank)
        finally:
            clock.pop()

    return facility_at


@contextmanager
def instrument(clock: LayerClock, trace: Trace) -> Iterator[None]:
    """Install every wrapper for the ``with`` block, then restore originals."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, name, layer, span in targets():
            original = vars(owner)[name]
            saved.append((owner, name, original))
            if name == "facility_at":
                wrapped = _wrap_stream(original, clock, layer)
            else:
                wrapped = _wrap(original, clock, layer, trace, span)
            setattr(owner, name, wrapped)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
