"""Central registry of observability instrument names.

Every counter, gauge, and timer name used anywhere in :mod:`repro` is
declared here, once, under its kind.  The reprolint rule **REP001**
(:mod:`repro.analysis.rules`) cross-checks this registry against the
whole tree:

* a call site (``metrics.active().counter("...")``,
  ``metrics.CounterBlock("...")``, ``metrics.GaugeBlock("...")``,
  ``timer("...")``, ...) whose name is *not* declared here is a lint
  error -- a typo would otherwise mint a brand-new counter that
  silently slips past the CI smoke gate
  (``benchmarks/baselines/smoke.json`` only checks names it knows);
* a name declared here with *no* remaining call site is a lint error
  too -- dead registry entries would let the gated vocabulary rot.

The committed smoke baseline must stay a subset of :data:`COUNTERS`
(pinned by ``tests/test_obs_names.py``), so a counter can never be
renamed without touching this file, the call site, and the baseline in
the same change.

Names are hierarchical dotted strings grouped by subsystem prefix; see
:mod:`repro.obs.metrics` for the conventions.
"""

from __future__ import annotations

#: Monotonic counters (``Registry.counter``) -- one entry per name.
COUNTERS = frozenset(
    {
        # -- network.dijkstra / network.kernels ------------------------
        "dijkstra.runs",
        "dijkstra.pops",
        "dijkstra.relaxations",
        "dijkstra.settled",
        # -- network.incremental (resumable nearest-facility streams) --
        "incremental.streams",
        "incremental.pops",
        "incremental.relaxations",
        "incremental.settled",
        "incremental.edges_materialized",
        # -- network.parallel (process-pool distance fan-out) ----------
        "parallel.tasks",
        "parallel.fallbacks",
        # -- network.oracle (hierarchy builds, loads, queries, streams) -
        "oracle.builds",
        "oracle.cache_hits",
        "oracle.cache_misses",
        "oracle.queries",
        "oracle.streams",
        "oracle.prunes",
        # -- network.ch (contraction-hierarchy oracle tier) ------------
        "ch.shortcuts",
        "ch.upward_settles",
        "ch.bucket_scans",
        "ch.matrix_blocks",
        "ch.tie_fallbacks",
        # -- flow.sspa (successive shortest-path augmentation) ---------
        "sspa.dijkstra_runs",
        "sspa.pops",
        "sspa.reveals",
        "sspa.augmentations",
        "sspa.path_edges",
        # -- core.set_cover (CheckCover lazy heap) ---------------------
        "set_cover.checks",
        "set_cover.heap_pops",
        "set_cover.selections",
        # -- core.wma (the paper's Wide Matching Algorithm) ------------
        "wma.solves",
        "wma.iterations",
        # -- runtime (fallback chains and budgets) ---------------------
        "runtime.attempts",
        "runtime.fallbacks",
        "runtime.budget_exceeded",
        "runtime.degraded_returns",
        # -- serve (online mutation/delta engine) ----------------------
        "serve.batches",
        "serve.mutations",
        "serve.applied",
        "serve.rejected",
        "serve.shed_queue",
        "serve.shed_deadline",
        "serve.repairs_component",
        "serve.repairs_global",
        "serve.degraded",
        "serve.cache_hits",
        "serve.cache_misses",
    }
)

#: Point-in-time gauges (``Registry.gauge``).
GAUGES = frozenset(
    {
        "bipartite.peak_edges",
    }
)

#: Accumulating wall-time timers (``Registry.timer``).  Each timer
#: contributes ``<name>.seconds`` and ``<name>.calls`` keys to
#: ``Registry.as_dict()`` exports.
TIMERS = frozenset(
    {
        "wma.solve",
    }
)

#: Every registered instrument name, regardless of kind.
ALL_NAMES = COUNTERS | GAUGES | TIMERS


def kind_of(name: str) -> str | None:
    """The instrument kind registered for ``name`` (``None``: unknown)."""
    if name in COUNTERS:
        return "counter"
    if name in GAUGES:
        return "gauge"
    if name in TIMERS:
        return "timer"
    return None


def is_registered(name: str) -> bool:
    """Whether ``name`` is a declared instrument name of any kind."""
    return name in ALL_NAMES


def exported_keys() -> frozenset[str]:
    """Every key a full ``Registry.as_dict()`` export may contain.

    Counters and gauges export under their own name; timers fan out to
    ``<name>.seconds`` and ``<name>.calls``.  Baseline files (e.g.
    ``benchmarks/baselines/smoke.json``) must draw their keys from this
    set.
    """
    keys = set(COUNTERS | GAUGES)
    for name in TIMERS:
        keys.add(f"{name}.seconds")
        keys.add(f"{name}.calls")
    return frozenset(keys)
