"""The distance oracle: scopes, settings, blobs and solver equivalence.

:mod:`repro.network.oracle` decides when a contraction hierarchy serves
distances.  These tests pin its contract: the values ``oracle=`` and
``REPRO_ORACLE`` accept, the nesting scopes, the per-network memo, the
blob corruption-safety that ``REPRO_ORACLE_DIR`` relies on (any unusable
blob falls back to a rebuild), and that a solve inside a scope changes
nothing but speed -- objectives and the SSPA trajectory are
bit-identical to the kernel path.  The hierarchy's queries, blocks and
streams are checked against the kernel in ``tests/test_ch.py``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.bench.harness import run_solvers
from repro.datagen.instances import uniform_instance
from repro.errors import GraphError
from repro.network import ch as ch_mod
from repro.network import oracle as oracle_mod
from repro.network.ch import ContractionHierarchy
from repro.obs import metrics
from repro.obs.profile import profile_solver
from tests.conftest import build_random_instance, build_random_network


class TestQuery:
    def test_query_counters(self):
        network = build_random_network(40, seed=1)
        hierarchy = ContractionHierarchy.build(network)
        reg = metrics.Registry()
        with metrics.use(reg):
            hierarchy.query(0, 39)
            hierarchy.query(5, 17)
        counts = reg.as_dict()
        assert counts["oracle.queries"] == 2
        assert counts["ch.upward_settles"] >= 2


class TestPersistence:
    def test_truncated_blob_loads_none(self, tmp_path):
        network = build_random_network(30, seed=0)
        path = tmp_path / "ch.npz"
        ContractionHierarchy.build(network).save(str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert ContractionHierarchy.load(str(path), network) is None

    def test_foreign_version_loads_none(self, tmp_path):
        network = build_random_network(20, seed=0)
        path = tmp_path / "ch.npz"
        ContractionHierarchy.build(network).save(str(path))
        with np.load(str(path)) as blob:
            fields = {k: blob[k] for k in blob.files}
        fields["version"] = np.int64(ch_mod.CH_FORMAT_VERSION + 1)
        np.savez(str(path), **fields)
        assert ContractionHierarchy.load(str(path), network) is None

    def test_load_or_build_rebuilds_on_corruption(self, tmp_path):
        network = build_random_network(30, seed=5)
        path = ch_mod.cache_path(str(tmp_path), network)
        first = ch_mod.load_or_build(network, str(tmp_path))
        with open(path, "wb") as fh:
            fh.write(b"corrupted")
        reg = metrics.Registry()
        with metrics.use(reg):
            rebuilt = ch_mod.load_or_build(network, str(tmp_path))
        assert reg.as_dict()["oracle.cache_misses"] == 1
        assert rebuilt.info()["n_arcs"] == first.info()["n_arcs"]
        # The corrupt blob was overwritten with a loadable one.
        assert ContractionHierarchy.load(path, network) is not None


class TestSolverEquivalence:
    @pytest.mark.parametrize("method", ["wma", "hilbert", "wma-naive"])
    def test_objectives_bit_identical(self, method):
        for seed in range(4):
            instance = build_random_instance(seed, n=40, m=8, l=10, k=4)
            rows_plain = run_solvers(
                instance, [method], seeds={method: 0}, oracle=False
            )
            rows_oracle = run_solvers(
                instance, [method], seeds={method: 0}, oracle="ch"
            )
            assert rows_oracle[0].objective == rows_plain[0].objective

    def test_oracle_counters_appear_in_rows(self):
        instance = build_random_instance(1, n=40, m=8, l=10, k=4)
        rows = run_solvers(instance, ["wma"], oracle="ch")
        m = rows[0].metrics
        assert m["oracle.streams"] > 0
        assert m["ch.upward_settles"] > 0
        # Kernel-stream work replaced wholesale, vocabulary kept.
        assert m["incremental.pops"] == 0

    def test_sspa_prunes_fire_under_oracle(self):
        instance = build_random_instance(2, n=50, m=10, l=12, k=5)
        rows = run_solvers(instance, ["wma"], oracle="ch")
        assert rows[0].metrics["oracle.prunes"] > 0


class TestResolveAndScopes:
    def test_resolve_off_values(self, monkeypatch):
        monkeypatch.delenv(oracle_mod.ORACLE_ENV_VAR, raising=False)
        network = build_random_network(20, seed=0)
        assert oracle_mod.resolve(None, network) is None
        assert oracle_mod.resolve(False, network) is None
        for value in ("", "0", "off", "none", "false", " OFF "):
            assert oracle_mod.resolve(value, network) is None, value
        monkeypatch.setenv(oracle_mod.ORACLE_ENV_VAR, "0")
        assert oracle_mod.resolve(None, network) is None

    def test_resolve_env_enables(self, monkeypatch):
        monkeypatch.delenv(oracle_mod.ORACLE_DIR_ENV_VAR, raising=False)
        monkeypatch.setenv(oracle_mod.ORACLE_ENV_VAR, "ch")
        network = build_random_network(20, seed=0)
        hierarchy = oracle_mod.resolve(None, network)
        assert isinstance(hierarchy, ContractionHierarchy)
        # Memoized per network object.
        assert oracle_mod.resolve("ch", network) is hierarchy
        assert oracle_mod.resolve("ch", None) is None

    def test_resolve_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(oracle_mod.ORACLE_ENV_VAR, "warp-drive")
        network = build_random_network(20, seed=0)
        with pytest.raises(GraphError):
            oracle_mod.resolve(None, network)
        with pytest.raises(GraphError):
            oracle_mod.resolve(3.14, network)

    @pytest.mark.parametrize("value", ["alt", True, "on", "1", "true"])
    def test_resolve_rejects_removed_spellings(self, value, monkeypatch):
        # They once selected a landmark oracle; remapping them to the
        # hierarchy would swap a millisecond build for a seconds-scale
        # one, so they fail loudly, naming what is accepted.
        network = build_random_network(20, seed=0)
        with pytest.raises(GraphError, match="'ch'"):
            oracle_mod.resolve(value, network)
        if isinstance(value, str):
            monkeypatch.setenv(oracle_mod.ORACLE_ENV_VAR, value)
            with pytest.raises(GraphError, match="'ch'"):
                oracle_mod.resolve(None, network)

    def test_resolve_binds_instances(self):
        network = build_random_network(20, seed=0)
        other = build_random_network(20, seed=1)
        hierarchy = ContractionHierarchy.build(network)
        assert oracle_mod.resolve(hierarchy, network) is hierarchy
        with pytest.raises(GraphError):
            oracle_mod.resolve(hierarchy, other)

    def test_use_scope_nests_and_restores(self):
        network = build_random_network(20, seed=0)
        a = ContractionHierarchy.build(network)
        b = ContractionHierarchy.build(network)
        assert oracle_mod.active() is None
        with oracle_mod.use(a):
            assert oracle_mod.active() is a
            with oracle_mod.use(b):
                assert oracle_mod.active() is b
            assert oracle_mod.active() is a
        assert oracle_mod.active() is None

    def test_active_for_rejects_mismatched_network(self):
        network = build_random_network(20, seed=0)
        other = build_random_network(20, seed=1)
        hierarchy = ContractionHierarchy.build(network)
        with oracle_mod.use(hierarchy):
            assert oracle_mod.active_for(network) is hierarchy
            assert oracle_mod.active_for(other) is None

    def test_default_oracle_honors_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(oracle_mod.ORACLE_DIR_ENV_VAR, str(tmp_path))
        network = build_random_network(30, seed=9)
        hierarchy = oracle_mod.default_oracle(network)
        expected = ch_mod.cache_path(str(tmp_path), network)
        assert hierarchy.source_path == expected
        assert os.path.exists(expected)


class TestProfileIntegration:
    def test_profile_oracle_keeps_dijkstra_counters_flat(self):
        instance = build_random_instance(3, n=40, m=8, l=10, k=4)
        # oracle=False pins the kernel path regardless of REPRO_ORACLE
        # (this suite also runs under the CI oracle-equivalence job).
        plain = profile_solver(instance, "wma", oracle=False)
        fast = profile_solver(instance, "wma", oracle="ch")
        assert fast.objective == plain.objective
        # The build runs *outside* the profiled registry, so oracle runs
        # must not inflate the report's dijkstra or build ceilings.
        assert fast.metrics["dijkstra.pops"] <= plain.metrics["dijkstra.pops"]
        assert fast.metrics["oracle.builds"] == 0
        assert fast.metrics["ch.upward_settles"] > 0
        assert plain.metrics["ch.upward_settles"] == 0
        # Both reports carry the full shared vocabulary.
        for key in ("oracle.prunes", "incremental.pops", "dijkstra.pops"):
            assert key in plain.metrics
            assert key in fast.metrics

    def test_kernel_streams_prune_like_ch(self):
        # The kernel stream's paused heap bounds nnDist too, so the
        # Theorem-1 stop is certified without resuming streams -- and
        # the SSPA trajectory is exactly the CH run's.
        instance = uniform_instance(256, seed=0)
        kernel = profile_solver(instance, "wma", oracle=False).metrics
        ch = profile_solver(instance, "wma", oracle="ch").metrics
        assert kernel["oracle.prunes"] > 0
        assert ch["oracle.queries"] == 0
        for key in (
            "oracle.prunes",
            "sspa.reveals",
            "sspa.augmentations",
            "sspa.pops",
            "sspa.dijkstra_runs",
        ):
            assert kernel[key] == ch[key], key

    def test_profile_env_knob(self, monkeypatch):
        monkeypatch.setenv(oracle_mod.ORACLE_ENV_VAR, "ch")
        instance = build_random_instance(4, n=30, m=6, l=8, k=3)
        report = profile_solver(instance, "wma")
        assert report.metrics["oracle.streams"] > 0
        # Explicit off overrides the environment.
        off = profile_solver(instance, "wma", oracle=False)
        assert off.metrics["oracle.streams"] == 0
        assert off.objective == report.objective


class TestInfoPayload:
    def test_info_is_json_ready(self):
        network = build_random_network(25, seed=0)
        doc = ContractionHierarchy.build(network).info()
        json.dumps(doc)  # must not raise
        assert doc["fingerprint"] == network.fingerprint
        assert doc["kind"] == "ch"
        assert doc["directed"] is False
