"""Tests for reprolint (:mod:`repro.analysis`): rules, suppressions,
baseline ratchet, JSON schema, CLI exit codes, and the self-check that
the repo's own source tree lints clean."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    LintEngine,
    default_root,
    load_baseline,
    save_baseline,
)
from repro.analysis.engine import FileContext
from repro.analysis.lintcli import main as lint_main
from repro.analysis.rules import (
    RULES,
    SeededRandomnessRule,
    default_rules,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_BASELINE = REPO_ROOT / "reprolint-baseline.json"

#: A registry fixture whose names the clean fixtures below all use.
REGISTRY_SRC = """
    COUNTERS = frozenset({"good.counter"})
    GAUGES = frozenset({"good.gauge"})
    TIMERS = frozenset({"good.timer"})
"""

#: Uses every registry name once, so REP001's dead-entry check is happy.
REGISTRY_USER_SRC = """
    def touch(reg):
        reg.counter("good.counter").add()
        reg.gauge("good.gauge").set(1)
        with reg.timer("good.timer").time():
            pass
"""


def run_lint(tmp_path, files, baseline=None, rules=None):
    """Write ``files`` (rel-path -> source) under ``tmp_path`` and lint."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return LintEngine(tmp_path, rules=rules).run(baseline)


def with_registry(files):
    """Add the REP001 registry + a user of all its names to ``files``."""
    return {
        "obs/names.py": REGISTRY_SRC,
        "obs/used.py": REGISTRY_USER_SRC,
        **files,
    }


def rule_ids(result):
    return [f.rule for f in result.findings]


class TestRep001ObsNames:
    def test_clean_roundtrip(self, tmp_path):
        result = run_lint(tmp_path, with_registry({}))
        assert result.ok
        assert result.findings == []

    def test_unregistered_name_fires(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "flow/x.py": """
                        def f(reg):
                            reg.counter("nope.missing").add()
                    """
                }
            ),
        )
        assert not result.ok
        (finding,) = result.findings
        assert finding.rule == "REP001"
        assert finding.symbol == "nope.missing"
        assert finding.path == "flow/x.py"

    def test_kind_mismatch_fires(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "flow/x.py": """
                        def f(reg):
                            reg.gauge("good.counter").set(1)
                    """
                }
            ),
        )
        assert [f.rule for f in result.findings] == ["REP001"]
        assert "registered as a counter" in result.findings[0].message

    def test_dead_registry_entry_fires(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "obs/names.py": """
                    COUNTERS = frozenset({"never.used"})
                    GAUGES = frozenset()
                    TIMERS = frozenset()
                """
            },
        )
        (finding,) = result.findings
        assert finding.rule == "REP001"
        assert finding.path == "obs/names.py"
        assert "dead registry entry" in finding.message

    def test_module_constant_resolves(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "flow/x.py": """
                        NAME = "constant.miss"

                        def f(reg):
                            reg.counter(NAME).add()
                    """
                }
            ),
        )
        assert [f.symbol for f in result.findings] == ["constant.miss"]

    def test_counterblock_args_checked(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "flow/x.py": """
                        import metrics

                        BLOCK = metrics.CounterBlock("good.counter", "bad.block")
                    """
                }
            ),
        )
        assert [f.symbol for f in result.findings] == ["bad.block"]

    def test_gaugeblock_args_checked_as_gauges(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "flow/x.py": """
                        import metrics

                        BLOCK = metrics.GaugeBlock("good.gauge", "good.counter")
                    """
                }
            ),
        )
        assert [f.symbol for f in result.findings] == ["good.counter"]
        assert "used as a gauge" in result.findings[0].message

    def test_line_suppression(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "flow/x.py": """
                        def f(reg):
                            reg.counter("nope.x").add()  # reprolint: disable=REP001
                    """
                }
            ),
        )
        assert result.ok
        assert result.suppressed == 1


class TestRep002SolverRegistration:
    CLEAN = {
        "__init__.py": """
            from baselines.foo import solve_foo

            SOLVERS = {"foo": solve_foo}
        """,
        "baselines/foo.py": """
            from runtime.options import solver_api

            @solver_api("foo", uses=frozenset())
            def solve_foo(instance):
                return None
        """,
    }

    def test_clean(self, tmp_path):
        result = run_lint(tmp_path, with_registry(self.CLEAN))
        assert result.ok

    def test_missing_decorator_fires(self, tmp_path):
        files = dict(self.CLEAN)
        files["baselines/foo.py"] = """
            def solve_foo(instance):
                return None
        """
        result = run_lint(tmp_path, with_registry(files))
        assert "REP002" in rule_ids(result)
        assert any("solver_api" in f.message for f in result.findings)

    def test_unreachable_from_solvers_fires(self, tmp_path):
        files = dict(self.CLEAN)
        files["baselines/bar.py"] = """
            from runtime.options import solver_api

            @solver_api("bar", uses=frozenset())
            def solve_bar(instance):
                return None
        """
        result = run_lint(tmp_path, with_registry(files))
        hits = [f for f in result.findings if f.rule == "REP002"]
        assert [f.symbol for f in hits] == ["solve_bar"]
        assert "not reachable from" in hits[0].message

    def test_outside_solver_dirs_ignored(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "io/misc.py": """
                        def solve_nothing():
                            return None
                    """
                }
            ),
        )
        assert result.ok


class TestRep003WallClock:
    def test_time_time_fires(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "core/x.py": """
                        import time

                        def f():
                            return time.time()
                    """
                }
            ),
        )
        assert rule_ids(result) == ["REP003"]

    def test_from_import_fires(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "core/x.py": """
                        from time import monotonic
                    """
                }
            ),
        )
        assert rule_ids(result) == ["REP003"]

    def test_runtime_and_obs_exempt(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "runtime/x.py": """
                        import time

                        def f():
                            return time.time()
                    """,
                    "obs/x.py": """
                        import time

                        def f():
                            return time.monotonic()
                    """,
                }
            ),
        )
        assert result.ok

    def test_perf_counter_allowed(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "core/x.py": """
                        import time

                        def f():
                            return time.perf_counter()
                    """
                }
            ),
        )
        assert result.ok

    def test_file_suppression(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "core/x.py": """
                        # reprolint: disable=REP003
                        import time

                        def f():
                            return time.time()
                    """
                }
            ),
        )
        assert result.ok
        assert result.suppressed == 1


class TestRep004SeededRandomness:
    def test_import_random_fires(self, tmp_path):
        result = run_lint(
            tmp_path, with_registry({"core/x.py": "import random\n"})
        )
        assert rule_ids(result) == ["REP004"]

    def test_unseeded_default_rng_fires(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "core/x.py": """
                        import numpy as np

                        def f():
                            return np.random.default_rng()
                    """
                }
            ),
        )
        assert rule_ids(result) == ["REP004"]

    def test_seeded_default_rng_clean(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "core/x.py": """
                        import numpy as np

                        def f(seed):
                            return np.random.default_rng(seed)
                    """
                }
            ),
        )
        assert result.ok

    def test_faults_whitelisted(self, tmp_path):
        result = run_lint(
            tmp_path, with_registry({"runtime/faults.py": "import random\n"})
        )
        assert result.ok


class TestRep101BudgetReachability:
    def test_unchecked_hot_loop_fires(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "network/hot.py": """
                        def sweep(items):
                            total = 0
                            for item in items:
                                total += item
                            return total
                    """
                }
            ),
        )
        assert rule_ids(result) == ["REP101"]
        assert result.findings[0].symbol == "sweep"
        assert result.findings[0].severity == "error"

    def test_checkpointed_loop_clean(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "network/hot.py": """
                        from runtime.budget import checkpoint

                        def sweep(items):
                            total = 0
                            for item in items:
                                checkpoint()
                                total += item
                            return total
                    """
                }
            ),
        )
        assert result.ok

    def test_enclosing_scope_checkpoint_counts(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "network/hot.py": """
                        from runtime.budget import checkpoint

                        def outer(items):
                            checkpoint()

                            def inner():
                                for item in items:
                                    pass

                            return inner
                    """
                }
            ),
        )
        assert result.ok

    def test_constant_range_loop_clean(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "network/hot.py": """
                        def f():
                            total = 0
                            for i in range(10):
                                total += i
                            return total
                    """
                }
            ),
        )
        assert result.ok

    def test_cold_modules_ignored(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "io/cold.py": """
                        def sweep(items):
                            for item in items:
                                pass
                    """
                }
            ),
        )
        assert result.ok

    def test_def_line_suppression(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "network/hot.py": """
                        def sweep(items):  # reprolint: disable=REP101
                            for item in items:
                                pass
                    """
                }
            ),
        )
        assert result.ok
        assert result.suppressed == 1


class TestEngineMechanics:
    def test_syntax_error_yields_rep000(self, tmp_path):
        result = run_lint(
            tmp_path, with_registry({"core/broken.py": "def f(:\n"})
        )
        assert "REP000" in rule_ids(result)

    def test_disable_all(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "core/x.py": """
                        # reprolint: disable=all
                        import random
                        import time

                        def f():
                            return time.time()
                    """
                }
            ),
        )
        assert result.ok
        assert result.suppressed == 2

    def test_findings_sorted_and_stable(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry(
                {
                    "core/b.py": "import random\n",
                    "core/a.py": "import random\n",
                }
            ),
        )
        assert [f.path for f in result.findings] == ["core/a.py", "core/b.py"]

    def test_directive_inside_a_string_suppresses_nothing(self, tmp_path):
        # A docstring line showing the directive syntax is not a comment,
        # so it must not switch REP004 off for the file.
        result = run_lint(
            tmp_path,
            {
                "core/x.py": '''
                    """Example of the syntax:

                    # reprolint: disable=REP004
                    """

                    import random
                '''
            },
            rules=[SeededRandomnessRule()],
        )
        assert rule_ids(result) == ["REP004"]
        assert result.suppressed == 0


class TestBaselineRatchet:
    def test_baselined_finding_passes(self, tmp_path):
        files = with_registry({"core/x.py": "import random\n"})
        result = run_lint(
            tmp_path, files, baseline={"REP004:core/x.py:import-random": 1}
        )
        assert result.ok
        assert len(result.baselined_findings) == 1
        assert result.stale_baseline == []

    def test_stale_entry_reported(self, tmp_path):
        result = run_lint(
            tmp_path,
            with_registry({}),
            baseline={"REP004:core/gone.py:import-random": 1},
        )
        assert result.ok
        assert result.stale_baseline == ["REP004:core/gone.py:import-random"]

    def test_count_overflow_fails(self, tmp_path):
        files = with_registry(
            {"core/x.py": "import random\nimport random.sub\n"}
        )
        result = run_lint(
            tmp_path, files, baseline={"REP004:core/x.py:import-random": 1}
        )
        assert not result.ok
        assert len(result.baselined_findings) == 1
        assert len(result.new_findings) == 1

    def test_save_load_roundtrip(self, tmp_path):
        files = with_registry({"core/x.py": "import random\n"})
        result = run_lint(tmp_path, files)
        target = tmp_path / "baseline.json"
        save_baseline(target, result.findings)
        loaded = load_baseline(target)
        assert loaded == {"REP004:core/x.py:import-random": 1}
        again = run_lint(tmp_path, files, baseline=loaded)
        assert again.ok

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}


class TestJsonSchema:
    def test_report_schema_roundtrip(self, tmp_path):
        result = run_lint(
            tmp_path, with_registry({"core/x.py": "import random\n"})
        )
        doc = json.loads(result.to_json())
        assert doc["version"] == 1
        assert doc["tool"] == "reprolint"
        assert set(doc["summary"]) == {
            "files",
            "findings",
            "baselined",
            "suppressed",
            "stale_baseline",
            "ok",
        }
        assert doc["summary"]["ok"] is False
        (finding,) = doc["findings"]
        assert set(finding) == {
            "rule",
            "severity",
            "path",
            "line",
            "col",
            "symbol",
            "message",
            "hint",
            "baselined",
            "key",
        }
        assert finding["key"] == "REP004:core/x.py:import-random"


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "obs").mkdir()
        (tmp_path / "obs" / "names.py").write_text(
            textwrap.dedent(REGISTRY_SRC)
        )
        (tmp_path / "obs" / "used.py").write_text(
            textwrap.dedent(REGISTRY_USER_SRC)
        )
        assert lint_main([str(tmp_path), "--no-baseline"]) == 0
        assert "-- ok" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "x.py").write_text("import random\n")
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1

    def test_exit_two_on_bad_rule(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--rules", "NOPE"]) == 2

    def test_json_output_file(self, tmp_path, capsys):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "x.py").write_text("import random\n")
        out = tmp_path / "report.json"
        code = lint_main(
            [
                str(tmp_path),
                "--no-baseline",
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["summary"]["findings"] == 1

    def test_rules_filter(self, tmp_path):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "x.py").write_text("import random\n")
        assert (
            lint_main([str(tmp_path), "--no-baseline", "--rules", "REP003"])
            == 0
        )

    def test_strict_fails_on_stale(self, tmp_path, capsys):
        baseline = tmp_path / "stale.json"
        baseline.write_text(
            json.dumps(
                {"version": 1, "findings": {"REP004:gone.py:import-random": 1}}
            )
        )
        (tmp_path / "keep.py").write_text("x = 1\n")
        assert (
            lint_main([str(tmp_path), "--baseline", str(baseline)]) == 0
        )
        assert (
            lint_main(
                [str(tmp_path), "--baseline", str(baseline), "--strict"]
            )
            == 1
        )

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for cls in RULES:
            assert cls.id in out


@pytest.fixture(scope="module")
def own_tree():
    """The repo's own tree, linted once as CI does and once with every
    suppression ignored, shared by the self-check tests below."""
    baseline = load_baseline(REPO_BASELINE) if REPO_BASELINE.exists() else None
    result = LintEngine(default_root()).run(baseline)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            FileContext, "is_suppressed", lambda self, *args, **kwargs: False
        )
        unsuppressed = LintEngine(default_root()).run()
    project = LintEngine(default_root(), rules=[]).parse_project()
    return result, unsuppressed.findings, project.sources


class TestSelfCheck:
    """The repo's own source tree must lint clean against its baseline,
    with no suppression directive left that suppresses nothing."""

    def test_own_tree_is_clean(self, own_tree):
        result, _unsuppressed, _sources = own_tree
        assert result.ok, "\n" + result.format_text()

    def test_no_stale_baseline_entries(self, own_tree):
        if not REPO_BASELINE.exists():
            pytest.skip("no committed baseline")
        result, _unsuppressed, _sources = own_tree
        assert result.stale_baseline == [], (
            "baseline entries with no matching finding -- run "
            "`repro lint --update-baseline` to ratchet down: "
            f"{result.stale_baseline}"
        )

    def test_every_suppression_suppresses_something(self, own_tree):
        _result, unsuppressed, sources = own_tree
        fired = {(f.path, f.rule) for f in unsuppressed}
        fired_at = {(f.path, f.line, f.rule) for f in unsuppressed}
        files = {path for path, _rule in fired}
        stale: list[str] = []
        for ctx in sources:
            for rule in sorted(ctx.file_disabled):
                hit = (
                    ctx.rel in files
                    if rule == "all"
                    else (ctx.rel, rule) in fired
                )
                if not hit:
                    stale.append(f"{ctx.rel} (file-level): {rule}")
            for line, rules in sorted(ctx.line_disabled.items()):
                for rule in sorted(rules):
                    hit = (
                        any(key[:2] == (ctx.rel, line) for key in fired_at)
                        if rule == "all"
                        else (ctx.rel, line, rule) in fired_at
                    )
                    if not hit:
                        stale.append(f"{ctx.rel}:{line}: {rule}")
        assert stale == [], (
            "suppression directives that suppress no finding -- delete "
            f"them: {stale}"
        )

    def test_every_rule_registered_and_distinct(self):
        ids = [r.id for r in default_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids)) == 14
        # The path-sensitive tier and the loop-cost rules ride the same
        # registry.
        assert {"REP105", "REP106", "REP107", "REP108"} <= set(ids)
        assert {"REP110", "REP111"} <= set(ids)
