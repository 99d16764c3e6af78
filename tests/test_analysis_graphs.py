"""Tests for the whole-program graph layer (:mod:`repro.analysis.graphs`)
and the cross-file rules built on it (REP101-REP104), plus the graph
exports and the baseline ratchet check.

Fixture mini-packages live in ``tests/fixtures`` (see its README); the
rule positive/negative cases build throwaway trees under ``tmp_path``
with the same helper style as ``tests/test_reprolint.py``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis.engine import LintEngine, default_root
from repro.analysis.graphs import (
    SOLVERS_NODE,
    AnalysisProject,
    check_layering,
    layer_table,
    rank_of,
)
from repro.analysis.lintcli import main as lint_main
from repro.analysis.lintcli import ratchet_check
from repro.analysis.reports import (
    GRAPH_FORMATS,
    GRAPH_KINDS,
    render_graph,
    render_layer_table,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Registry + user files keeping REP001 quiet in throwaway trees.
REGISTRY_FILES = {
    "obs/names.py": """
        COUNTERS = frozenset()
        GAUGES = frozenset()
        TIMERS = frozenset()
    """,
}


def project_for(root: Path) -> AnalysisProject:
    """Parse a fixture tree into an AnalysisProject (no rules run)."""
    return LintEngine(root, rules=[]).parse_project()


def run_lint(tmp_path, files, rules=None):
    """Write ``files`` (rel-path -> source) under ``tmp_path`` and lint."""
    for rel, source in {**REGISTRY_FILES, **files}.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return LintEngine(tmp_path, rules=rules).run()


def findings_for(result, rule):
    return [f for f in result.findings if f.rule == rule]


# ----------------------------------------------------------------------
# Import graph
# ----------------------------------------------------------------------
class TestImportGraph:
    def test_eager_cycle_detected(self):
        graph = project_for(FIXTURES / "cyclepkg").imports
        assert graph.eager_cycles() == [["alpha", "beta"]]

    def test_lazy_import_is_not_eager(self):
        graph = project_for(FIXTURES / "cyclepkg").imports
        lazy = [
            e
            for e in graph.internal_edges()
            if e.src == "gamma" and e.dst == "alpha"
        ]
        assert lazy and not lazy[0].eager
        assert all(
            e.src != "gamma" for e in graph.internal_edges(eager_only=True)
        )

    def test_resolve_symbol_through_reexport(self):
        graph = project_for(FIXTURES / "registrypkg").imports
        # The root __init__ re-exports solve_foo from baselines.foo.
        assert graph.resolve_symbol("", "solve_foo") == (
            "def",
            "baselines.foo",
            "solve_foo",
        )

    def test_as_dict_schema(self):
        payload = project_for(FIXTURES / "cyclepkg").imports.as_dict()
        assert payload["kind"] == "imports"
        assert set(payload["modules"]) == {"alpha", "beta", "gamma"}
        edge = payload["edges"][0]
        assert {"src", "dst", "line", "eager", "external", "names"} <= set(
            edge
        )


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_registry_edges_reach_solvers(self):
        calls = project_for(FIXTURES / "registrypkg").calls
        targets = {e.callee for e in calls.edges if e.caller == SOLVERS_NODE}
        assert "baselines.foo.solve_foo" in targets

    def test_checkpoint_reaching_is_transitive(self):
        calls = project_for(FIXTURES / "registrypkg").calls
        reaching = calls.checkpoint_reaching()
        # _scan checkpoints lexically; solve_foo only through the call.
        assert "baselines.foo._scan" in reaching
        assert "baselines.foo.solve_foo" in reaching

    def test_path_between_names_the_chain(self):
        calls = project_for(FIXTURES / "registrypkg").calls
        path = calls.path_between(
            "baselines.foo.solve_foo", "baselines.foo._scan"
        )
        assert path == ["baselines.foo.solve_foo", "baselines.foo._scan"]


# ----------------------------------------------------------------------
# Effect inference
# ----------------------------------------------------------------------
class TestEffects:
    def test_direct_mutation_recorded(self):
        effects = project_for(FIXTURES / "effectpkg").effects
        [effect] = effects.mutations("mut.poke")
        assert effect.kind == "mutate-call"
        assert (effect.root, effect.detail) == ("param:box", "items.append")

    def test_pure_reader_has_no_mutations(self):
        effects = project_for(FIXTURES / "effectpkg").effects
        assert effects.mutations("mut.reader") == []


# ----------------------------------------------------------------------
# Layering
# ----------------------------------------------------------------------
class TestLayering:
    def test_rank_specificity(self):
        assert rank_of("network.graph") == rank_of("network")
        assert rank_of("obs.profile") > rank_of("obs")
        assert rank_of("cli") > rank_of("core")

    def test_layer_table_lists_every_prefix(self):
        prefixes = [prefix for prefix, _ in layer_table()]
        assert "network" in prefixes and "analysis" in prefixes

    def test_fixture_trees_are_layer_clean(self):
        for name in ("cyclepkg", "registrypkg", "effectpkg"):
            graph = project_for(FIXTURES / name).imports
            violations = [
                v
                for v in check_layering(graph)
                if v.kind != "cycle"
            ]
            assert violations == [], (name, violations)


# ----------------------------------------------------------------------
# REP101 -- budget reachability (interprocedural)
# ----------------------------------------------------------------------
class TestRep101Interprocedural:
    def test_transitive_checkpoint_is_compliant(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "runtime/budget.py": """
                    def checkpoint():
                        pass
                """,
                "network/kern.py": """
                    from runtime.budget import checkpoint

                    def run_kernel(item):
                        checkpoint()
                        return item
                """,
                "network/hot.py": """
                    from network.kern import run_kernel

                    def sweep(items):
                        total = 0
                        for item in items:
                            total += run_kernel(item)
                        return total
                """,
            },
        )
        assert findings_for(result, "REP101") == []

    def test_unreaching_call_chain_fires(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "network/kern.py": """
                    def run_kernel(item):
                        return item
                """,
                "network/hot.py": """
                    from network.kern import run_kernel

                    def sweep(items):
                        total = 0
                        for item in items:
                            total += run_kernel(item)
                        return total
                """,
            },
        )
        hits = findings_for(result, "REP101")
        assert [f.symbol for f in hits] == ["sweep"]
        assert hits[0].severity == "error"


# ----------------------------------------------------------------------
# REP102 -- architecture layering
# ----------------------------------------------------------------------
class TestRep102Layering:
    def test_upward_import_fires_with_chain(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/thing.py": "VALUE = 1\n",
                "network/x.py": "from core.thing import VALUE\n",
            },
        )
        hits = findings_for(result, "REP102")
        assert len(hits) == 1
        assert hits[0].path == "network/x.py"
        assert "network.x" in hits[0].symbol
        assert "core.thing" in hits[0].symbol

    def test_downward_import_clean(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "network/x.py": "VALUE = 1\n",
                "core/thing.py": "from network.x import VALUE\n",
            },
        )
        assert findings_for(result, "REP102") == []

    def test_lazy_upward_import_tolerated(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/thing.py": "VALUE = 1\n",
                "network/x.py": """
                    def peek():
                        from core.thing import VALUE

                        return VALUE
                """,
            },
        )
        assert findings_for(result, "REP102") == []

    def test_analysis_must_stay_stdlib_only(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "analysis/probe.py": "import numpy as np\n",
            },
        )
        hits = findings_for(result, "REP102")
        assert len(hits) == 1
        assert "stdlib" in hits[0].message

    def test_eager_cycle_fires(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "network/a.py": "from network.b import B\nA = 1\n",
                "network/b.py": "from network.a import A\nB = 2\n",
            },
        )
        hits = findings_for(result, "REP102")
        assert len(hits) == 1
        assert "cycle" in hits[0].message


# ----------------------------------------------------------------------
# REP103 -- shared-state safety
# ----------------------------------------------------------------------
_REP103_FILES = {
    "network/graph.py": """
        class Network:
            def __init__(self):
                self._memo = None

            def warm(self):
                self._memo = 1
    """,
    "network/par.py": """
        from multiprocessing import Pool

        from network.graph import Network

        def _worker(network: Network):
            network.warm()

        def run(network: Network):
            with Pool(2, initializer=_worker, initargs=(network,)) as pool:
                return pool
    """,
}


class TestRep103SharedState:
    def test_worker_reachable_mutation_fires(self, tmp_path):
        result = run_lint(tmp_path, _REP103_FILES)
        hits = findings_for(result, "REP103")
        assert len(hits) == 1
        assert hits[0].path == "network/graph.py"
        assert "Network.warm" in hits[0].message
        assert "_worker" in hits[0].message  # entry chain is named

    def test_constructor_self_writes_exempt(self, tmp_path):
        # __init__'s self-write never fires: the instance is fresh.
        result = run_lint(tmp_path, _REP103_FILES)
        assert all(
            "__init__" not in f.message
            for f in findings_for(result, "REP103")
        )

    def test_bare_suppression_is_ignored(self, tmp_path):
        files = dict(_REP103_FILES)
        files["network/graph.py"] = """
            class Network:
                def __init__(self):
                    self._memo = None

                def warm(self):
                    self._memo = 1  # reprolint: disable=REP103
        """
        result = run_lint(tmp_path, files)
        assert len(findings_for(result, "REP103")) == 1

    def test_justified_suppression_counts(self, tmp_path):
        files = dict(_REP103_FILES)
        files["network/graph.py"] = """
            class Network:
                def __init__(self):
                    self._memo = None

                def warm(self):
                    self._memo = 1  # reprolint: disable=REP103 -- fixture memo
        """
        result = run_lint(tmp_path, files)
        assert findings_for(result, "REP103") == []
        assert result.suppressed >= 1

    def test_unshared_class_ignored(self, tmp_path):
        files = {
            "network/par.py": textwrap.dedent(
                """
                from multiprocessing import Pool

                class Scratch:
                    def bump(self):
                        self.count = 1

                def _worker(scratch: Scratch):
                    scratch.bump()

                def run(scratch: Scratch):
                    with Pool(2, initializer=_worker) as pool:
                        return pool
                """
            )
        }
        result = run_lint(tmp_path, files)
        assert findings_for(result, "REP103") == []


# ----------------------------------------------------------------------
# REP104 -- dead exports
# ----------------------------------------------------------------------
class TestRep104DeadExports:
    def test_orphan_public_symbol_fires(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/api.py": """
                    def used_one():
                        return 1

                    def orphan_xyzzy():
                        return 2
                """,
                "core/user.py": "from core.api import used_one\n",
            },
        )
        hits = findings_for(result, "REP104")
        assert [f.symbol for f in hits] == ["orphan_xyzzy"]

    def test_unimported_module_exempt(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/standalone.py": """
                    def nobody_calls_this():
                        return 1
                """,
            },
        )
        assert findings_for(result, "REP104") == []

    def test_private_symbols_exempt(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/api.py": """
                    def used_one():
                        return 1

                    def _private_helper():
                        return 2
                """,
                "core/user.py": "from core.api import used_one\n",
            },
        )
        assert findings_for(result, "REP104") == []

    def test_string_reference_counts_as_usage(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/api.py": """
                    def used_one():
                        return 1

                    def by_name():
                        return 2
                """,
                "core/user.py": """
                    from core import api

                    HOOK = "by_name"
                    used = api.used_one
                """,
            },
        )
        assert findings_for(result, "REP104") == []


# ----------------------------------------------------------------------
# Graph exports and the layer-table renderer
# ----------------------------------------------------------------------
class TestGraphExports:
    def test_imports_json_includes_layers(self):
        project = project_for(FIXTURES / "registrypkg")
        doc = json.loads(render_graph(project, "imports"))
        assert doc["kind"] == "imports"
        assert "layers" in doc
        assert doc["layers"]["runtime.budget"] == rank_of("runtime.budget")

    def test_calls_json_schema(self):
        project = project_for(FIXTURES / "registrypkg")
        doc = json.loads(render_graph(project, "calls"))
        assert doc["kind"] == "calls"
        assert any(
            e["caller"] == SOLVERS_NODE for e in doc["edges"]
        )

    def test_dot_outputs(self):
        project = project_for(FIXTURES / "cyclepkg")
        for which in GRAPH_KINDS:
            dot = render_graph(project, which, "dot")
            assert dot.startswith(f"digraph {which}")
        assert "json" in GRAPH_FORMATS

    def test_layer_table_renders(self):
        table = render_layer_table()
        assert "network" in table
        assert "rank" in table

    def test_cli_graph_export(self, tmp_path, capsys):
        code = lint_main(
            [str(FIXTURES / "cyclepkg"), "--graph", "imports"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["modules"]) == {"alpha", "beta", "gamma"}

    def test_cli_graph_output_file(self, tmp_path, capsys):
        out = tmp_path / "calls.dot"
        code = lint_main(
            [
                str(FIXTURES / "registrypkg"),
                "--graph",
                "calls",
                "--graph-format",
                "dot",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("digraph calls")


# ----------------------------------------------------------------------
# Baseline ratchet
# ----------------------------------------------------------------------
class TestRatchetCheck:
    @staticmethod
    def _write(path: Path, findings: dict[str, int]) -> Path:
        path.write_text(json.dumps({"version": 1, "findings": findings}))
        return path

    def test_shrinking_is_ok(self, tmp_path):
        old = self._write(tmp_path / "old.json", {"REP101:a.py:f": 2})
        new = self._write(tmp_path / "new.json", {"REP101:a.py:f": 1})
        assert ratchet_check(old, new) == []

    def test_new_key_fails(self, tmp_path):
        old = self._write(tmp_path / "old.json", {})
        new = self._write(tmp_path / "new.json", {"REP101:a.py:f": 1})
        violations = ratchet_check(old, new)
        assert violations and "new baseline entry" in violations[0]

    def test_grown_count_fails(self, tmp_path):
        old = self._write(tmp_path / "old.json", {"REP101:a.py:f": 1})
        new = self._write(tmp_path / "new.json", {"REP101:a.py:f": 3})
        assert ratchet_check(old, new) == ["REP101:a.py:f: 1 -> 3"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {})
        new = self._write(tmp_path / "new.json", {"REP101:a.py:f": 1})
        ok = lint_main(
            [
                str(tmp_path),
                "--ratchet-check",
                str(new),
                "--baseline",
                str(old),
            ]
        )
        assert ok == 0
        bad = lint_main(
            [
                str(tmp_path),
                "--ratchet-check",
                str(old),
                "--baseline",
                str(new),
            ]
        )
        assert bad == 1


# ----------------------------------------------------------------------
# Self-checks over the real tree
# ----------------------------------------------------------------------
class TestRealTree:
    def test_layering_holds_with_zero_findings(self):
        project = project_for(default_root())
        assert check_layering(project.imports) == []

    def test_kernel_read_paths_reach_checkpoints(self):
        calls = project_for(default_root()).calls
        reaching = calls.checkpoint_reaching()
        # The matrix read path is budget-compliant interprocedurally:
        # distance_matrix -> workspace run -> per-pop checkpoint.
        assert "network.dijkstra.distance_matrix" in reaching

    def test_solvers_registry_feeds_call_graph(self):
        calls = project_for(default_root()).calls
        targets = {e.callee for e in calls.edges if e.caller == SOLVERS_NODE}
        assert targets, "SOLVERS registry produced no call edges"
