"""Golden tests pinning the observability name registry.

The canonical instrument vocabulary lives in :mod:`repro.obs.names`.
These tests pin the exact counter list (a rename must consciously touch
this file), and assert the CI smoke baseline only gates names the
registry knows -- together with reprolint's REP001 rule this makes it
impossible to rename a counter silently.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import names

REPO_ROOT = Path(__file__).resolve().parents[1]
SMOKE_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "smoke.json"

#: The canonical counter vocabulary.  Adding a counter means extending
#: this list AND src/repro/obs/names.py in the same change; removing one
#: means the call sites are gone too (REP001 enforces both directions).
GOLDEN_COUNTERS = [
    "ch.bucket_scans",
    "ch.matrix_blocks",
    "ch.shortcuts",
    "ch.tie_fallbacks",
    "ch.upward_settles",
    "dijkstra.pops",
    "dijkstra.relaxations",
    "dijkstra.runs",
    "dijkstra.settled",
    "incremental.edges_materialized",
    "incremental.pops",
    "incremental.relaxations",
    "incremental.settled",
    "incremental.streams",
    "oracle.builds",
    "oracle.cache_hits",
    "oracle.cache_misses",
    "oracle.prunes",
    "oracle.queries",
    "oracle.streams",
    "parallel.fallbacks",
    "parallel.tasks",
    "runtime.attempts",
    "runtime.budget_exceeded",
    "runtime.degraded_returns",
    "runtime.fallbacks",
    "serve.applied",
    "serve.batches",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.degraded",
    "serve.mutations",
    "serve.rejected",
    "serve.repairs_component",
    "serve.repairs_global",
    "serve.shed_deadline",
    "serve.shed_queue",
    "set_cover.checks",
    "set_cover.heap_pops",
    "set_cover.selections",
    "sspa.augmentations",
    "sspa.dijkstra_runs",
    "sspa.path_edges",
    "sspa.pops",
    "sspa.reveals",
    "wma.iterations",
    "wma.solves",
]

GOLDEN_GAUGES = ["bipartite.peak_edges"]
GOLDEN_TIMERS = ["wma.solve"]


class TestGoldenRegistry:
    def test_counters_pinned(self):
        assert sorted(names.COUNTERS) == GOLDEN_COUNTERS

    def test_gauges_pinned(self):
        assert sorted(names.GAUGES) == GOLDEN_GAUGES

    def test_timers_pinned(self):
        assert sorted(names.TIMERS) == GOLDEN_TIMERS

    def test_kinds_disjoint(self):
        assert not names.COUNTERS & names.GAUGES
        assert not names.COUNTERS & names.TIMERS
        assert not names.GAUGES & names.TIMERS

    def test_all_names_is_union(self):
        assert names.ALL_NAMES == (
            names.COUNTERS | names.GAUGES | names.TIMERS
        )


class TestLookupHelpers:
    def test_kind_of(self):
        assert names.kind_of("dijkstra.pops") == "counter"
        assert names.kind_of("bipartite.peak_edges") == "gauge"
        assert names.kind_of("wma.solve") == "timer"
        assert names.kind_of("not.a.name") is None

    def test_is_registered(self):
        assert names.is_registered("wma.iterations")
        assert not names.is_registered("wma.bogus")

    def test_exported_keys_fan_out_timers(self):
        keys = names.exported_keys()
        assert "wma.solve.seconds" in keys
        assert "wma.solve.calls" in keys
        assert "wma.solve" not in keys
        assert "dijkstra.pops" in keys


class TestSmokeBaselineSubset:
    """The CI counter gate may only reference registered names."""

    def test_smoke_keys_are_registered_exports(self):
        doc = json.loads(SMOKE_BASELINE.read_text())
        metric_keys = set(doc["metrics"])
        unknown = metric_keys - names.exported_keys()
        assert not unknown, (
            f"smoke baseline gates unregistered metric names: "
            f"{sorted(unknown)}"
        )

    def test_naming_convention(self):
        for name in sorted(names.ALL_NAMES):
            prefix, _, rest = name.partition(".")
            assert prefix and rest, f"{name!r} is not dotted"
            assert name == name.lower()
            assert " " not in name
