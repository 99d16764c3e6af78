"""Fixture tests for the loop-cost rules (REP110, REP111).

Each rule gets positive fixtures (the defect fires) and negative
fixtures (the remediated shape is clean), plus the justification-only
suppression contract both share: a bare ``disable`` comment is ignored,
only ``disable=REPxxx -- <reason>`` suppresses.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import LintEngine
from repro.analysis.perfrules import LinearMembershipRule, LoopInvariantAllocRule


def run_rule(tmp_path: Path, rule, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return LintEngine(tmp_path, rules=[rule]).run()


def rule_ids(result):
    return [f.rule for f in result.findings]


class TestRep110LoopInvariantAlloc:
    def test_invariant_literal_in_instance_loop(self, tmp_path):
        result = run_rule(
            tmp_path,
            LoopInvariantAllocRule(),
            {
                "flow/a.py": """
                    def f(nodes, lo, hi):
                        for u in nodes:
                            bounds = [lo, hi]
                            use(u, bounds)
                    """
            },
        )
        assert rule_ids(result) == ["REP110"]
        assert "bounds" in result.findings[0].symbol

    def test_invariant_set_call_in_instance_loop(self, tmp_path):
        result = run_rule(
            tmp_path,
            LoopInvariantAllocRule(),
            {
                "flow/a.py": """
                    def f(nodes, blocked):
                        for u in nodes:
                            probe = set(blocked)
                            use(u, probe)
                    """
            },
        )
        assert rule_ids(result) == ["REP110"]

    def test_loop_dependent_alloc_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            LoopInvariantAllocRule(),
            {
                "flow/a.py": """
                    def f(nodes, lo):
                        for u in nodes:
                            pair = [lo, u]
                            use(pair)
                    """
            },
        )
        assert rule_ids(result) == []

    def test_empty_seed_and_mutated_copy_are_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            LoopInvariantAllocRule(),
            {
                "flow/a.py": """
                    def f(nodes, defaults):
                        for u in nodes:
                            acc = []
                            acc.append(u)
                            scratch = list(defaults)
                            scratch.append(u)
                    """
            },
        )
        assert rule_ids(result) == []

    def test_operand_mutated_by_closure_is_clean(self, tmp_path):
        # The regression that produced a false positive on the real
        # tree: the operand is rebound nowhere, but a locally-defined
        # closure called in the loop mutates it in place.
        result = run_rule(
            tmp_path,
            LoopInvariantAllocRule(),
            {
                "flow/a.py": """
                    def f(nodes, caps):
                        def grow():
                            caps.append(0)

                        for u in nodes:
                            snapshot = sorted(caps)
                            grow()
                            use(snapshot)
                    """
            },
        )
        assert rule_ids(result) == []

    def test_bounded_loop_is_exempt(self, tmp_path):
        result = run_rule(
            tmp_path,
            LoopInvariantAllocRule(),
            {
                "flow/a.py": """
                    def f(lo, hi):
                        for i in range(4):
                            bounds = [lo, hi]
                            use(bounds)
                    """
            },
        )
        assert rule_ids(result) == []


class TestRep111LinearMembership:
    def test_list_probe_in_instance_loop(self, tmp_path):
        result = run_rule(
            tmp_path,
            LinearMembershipRule(),
            {
                "flow/a.py": """
                    def f(nodes, selected: list[int]):
                        for u in nodes:
                            if u in selected:
                                pass
                    """
            },
        )
        assert rule_ids(result) == ["REP111"]
        assert "selected" in result.findings[0].message

    def test_list_built_by_call_is_flagged(self, tmp_path):
        result = run_rule(
            tmp_path,
            LinearMembershipRule(),
            {
                "flow/a.py": """
                    def f(nodes, chosen):
                        order = sorted(chosen)
                        for u in nodes:
                            if u not in order:
                                pass
                    """
            },
        )
        assert rule_ids(result) == ["REP111"]

    def test_set_probe_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            LinearMembershipRule(),
            {
                "flow/a.py": """
                    def f(nodes, selected: set[int]):
                        for u in nodes:
                            if u in selected:
                                pass
                    """
            },
        )
        assert rule_ids(result) == []

    def test_constant_tuple_enum_check_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            LinearMembershipRule(),
            {
                "flow/a.py": """
                    def f(ops):
                        for op in ops:
                            if op.kind in ("add", "drop"):
                                pass
                    """
            },
        )
        assert rule_ids(result) == []

    def test_probe_outside_instance_loop_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            LinearMembershipRule(),
            {
                "flow/a.py": """
                    def f(u, selected: list[int], nodes):
                        for v in nodes:
                            pass
                        return u in selected
                    """
            },
        )
        assert rule_ids(result) == []


class TestJustificationOnlySuppression:
    BAD_LOOP = """
        def f(nodes, lo, hi):
            for u in nodes:
                bounds = [lo, hi]{comment}
                use(u, bounds)
        """

    def test_bare_disable_does_not_suppress(self, tmp_path):
        result = run_rule(
            tmp_path,
            LoopInvariantAllocRule(),
            {
                "flow/a.py": self.BAD_LOOP.format(
                    comment="  # reprolint: disable=REP110"
                )
            },
        )
        assert rule_ids(result) == ["REP110"]
        assert result.suppressed == 0

    def test_justified_disable_suppresses(self, tmp_path):
        result = run_rule(
            tmp_path,
            LoopInvariantAllocRule(),
            {
                "flow/a.py": self.BAD_LOOP.format(
                    comment=(
                        "  # reprolint: disable=REP110 -- rebuilt each "
                        "pass on purpose: the fixture mutates bounds"
                    )
                )
            },
        )
        assert rule_ids(result) == []
        assert result.suppressed == 1
