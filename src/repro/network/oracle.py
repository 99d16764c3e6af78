"""The distance-oracle scope: which contraction hierarchy serves distances.

The solvers re-run Dijkstra over one fixed road network thousands of
times.  A :class:`~repro.network.ch.ContractionHierarchy`, preprocessed
once per network, answers the same distances bit for bit from small
upward searches; this module decides when one is active.  The
active-scope pattern (:func:`use` / :func:`active`) mirrors
:mod:`repro.obs.metrics`; the ``oracle=`` solver option and the
``REPRO_ORACLE`` environment variable (:func:`resolve`) install a scope
around each solve.

Inside a scope whose hierarchy matches the network (:func:`active_for`),
:class:`~repro.network.incremental.StreamPool` hands out
:class:`~repro.network.ch.CHFacilityStream` cursors instead of paused
kernel Dijkstras, :func:`~repro.network.kernels.many_source_lengths`
answers target blocks from bucket sweeps, and
:class:`~repro.network.parallel.ParallelDistanceEngine` ships the
hierarchy to its workers.  Leave the oracle off for solves: on both
measured solve inputs WMA ran several times faster on the kernel's
paused Dijkstras (``docs/api.md`` has the table).  The hierarchy pays
off on matrix-shaped work, where its buckets amortize across targets,
and on arrivals-only serve replays over large city grids.
"""

from __future__ import annotations

import os
import weakref
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

from repro.errors import GraphError
from repro.network.ch import ContractionHierarchy, load_or_build
from repro.network.graph import Network
from repro.obs import metrics

#: Environment knob: ``ch`` enables the default hierarchy for every
#: solve; ``off``/``none``/``0``/``false``/empty disables it.
ORACLE_ENV_VAR = "REPRO_ORACLE"

#: Environment knob: directory for persisted hierarchy blobs.  When
#: unset, default hierarchies are built in memory (still memoized per
#: network).
ORACLE_DIR_ENV_VAR = "REPRO_ORACLE_DIR"

_active: ContractionHierarchy | None = None

#: Default hierarchies memoized per live network (dropped with it).
_DEFAULT_ORACLES: weakref.WeakKeyDictionary[
    Network, ContractionHierarchy
] = weakref.WeakKeyDictionary()

_DISABLE_VALUES = ("", "0", "off", "none", "false")


def active() -> ContractionHierarchy | None:
    """The hierarchy installed by the innermost :func:`use` scope, if any."""
    return _active


def active_for(network: Network) -> ContractionHierarchy | None:
    """The active hierarchy, but only when it matches ``network``.

    Stream pools, the kernel matrix hook and the parallel engine consult
    this: a hierarchy built for a different adjacency must never serve
    distances for this one.
    """
    hierarchy = _active
    if hierarchy is not None and hierarchy.matches(network):
        return hierarchy.bind(network)
    return None


@contextmanager
def use(hierarchy: ContractionHierarchy) -> Iterator[ContractionHierarchy]:
    """Make ``hierarchy`` the active distance oracle within the block.

    Scopes nest; the previous hierarchy is restored on exit.  Entering a
    scope primes the ``oracle.*`` and ``ch.*`` counters in the active
    metrics registry so reports carry the vocabulary even for all-zero
    runs.
    """
    global _active
    previous = _active
    _active = hierarchy
    prime_counters(metrics.active())
    try:
        yield hierarchy
    finally:
        _active = previous


def prime_counters(registry: metrics.Registry) -> None:
    """Materialize every oracle-tier counter in ``registry`` at zero.

    The CI counter gate treats a baselined counter missing from a report
    as a violation, so kernel-path profiles must still export the oracle
    vocabulary (as zeros).  The hierarchy bumps every one of them but
    ``oracle.prunes``, which flow/sspa.py bumps on every stream kind.
    """
    registry.counter("oracle.builds")
    registry.counter("oracle.cache_hits")
    registry.counter("oracle.cache_misses")
    registry.counter("oracle.queries")
    registry.counter("oracle.streams")
    registry.counter("oracle.prunes")
    registry.counter("ch.shortcuts")
    registry.counter("ch.upward_settles")
    registry.counter("ch.bucket_scans")
    registry.counter("ch.matrix_blocks")


def default_oracle(network: Network) -> ContractionHierarchy:
    """The memoized default hierarchy of ``network``.

    Honors :data:`ORACLE_DIR_ENV_VAR` for persistence; without it the
    hierarchy lives only as long as the network object does.
    """
    hierarchy = _DEFAULT_ORACLES.get(network)
    if hierarchy is None:
        cache_dir = os.environ.get(ORACLE_DIR_ENV_VAR) or None
        hierarchy = load_or_build(network, cache_dir)
        _DEFAULT_ORACLES[network] = hierarchy
    return hierarchy


def resolve(value: Any, network: Network | None) -> ContractionHierarchy | None:
    """Map an ``oracle=`` option value onto a hierarchy (or ``None``).

    ``None`` consults :data:`ORACLE_ENV_VAR`; ``False`` and the off
    spellings disable; ``"ch"`` selects the default hierarchy of
    ``network``; a :class:`~repro.network.ch.ContractionHierarchy` is
    used as-is after a fingerprint check.  Any other value raises
    :class:`GraphError`.
    """
    if value is None:
        value = os.environ.get(ORACLE_ENV_VAR, "")
    if value is False:
        return None
    if isinstance(value, ContractionHierarchy):
        return value.bind(network) if network is not None else value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in _DISABLE_VALUES:
            return None
        if lowered == "ch":
            return default_oracle(network) if network is not None else None
    raise GraphError(
        f"unrecognized oracle setting {value!r}; expected a "
        f"ContractionHierarchy, None, False, 'ch', or an off spelling "
        f"({', '.join(repr(v) for v in _DISABLE_VALUES)})"
    )
