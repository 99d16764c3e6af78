"""Fixture tests for the path rules (REP105..REP108).

Each rule gets positive fixtures (the defect fires) and negative
fixtures (the remediated shape is clean), plus the justification-only
suppression behaviour shared by the whole tier.  Fixtures commented
"Conservative" pin shapes that are clean on every path but that the
statement-list checks flag anyway.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import LintEngine
from repro.analysis.pathrules import (
    BudgetExceptionSafetyRule,
    MustReleaseResourceRule,
    ServeStateMachineRule,
    SetOrderDeterminismRule,
)


def run_rule(tmp_path: Path, rule, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return LintEngine(tmp_path, rules=[rule]).run()


def rule_ids(result):
    return [f.rule for f in result.findings]


class TestRep105MustRelease:
    def test_conditional_close_leaks_on_else_path(self, tmp_path):
        result = run_rule(
            tmp_path,
            MustReleaseResourceRule(),
            {
                "flow/a.py": """
                    from multiprocessing.shared_memory import SharedMemory

                    def f(name, keep):
                        shm = SharedMemory(name=name)
                        if keep:
                            shm.close()
                        return 1
                    """
            },
        )
        assert rule_ids(result) == ["REP105"]
        assert "shm" in result.findings[0].message

    def test_missing_release_on_exception_path(self, tmp_path):
        # Released on the straight-line path, but read() raising skips
        # the close: the exc edge carries the live resource to
        # raise_exit.
        result = run_rule(
            tmp_path,
            MustReleaseResourceRule(),
            {
                "flow/a.py": """
                    def f(path):
                        fh = open(path)
                        data = fh.read()
                        fh.close()
                        return data
                    """
            },
        )
        assert rule_ids(result) == ["REP105"]
        assert "exception path" in result.findings[0].message

    def test_try_finally_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            MustReleaseResourceRule(),
            {
                "flow/a.py": """
                    def f(path):
                        fh = open(path)
                        try:
                            return work(fh)
                        finally:
                            fh.close()
                    """
            },
        )
        assert result.findings == []

    def test_escaping_resource_is_not_flagged(self, tmp_path):
        # Returning the handle transfers ownership to the caller.
        result = run_rule(
            tmp_path,
            MustReleaseResourceRule(),
            {
                "flow/a.py": """
                    def f(path):
                        fh = open(path)
                        return fh
                    """
            },
        )
        assert result.findings == []

    def test_pool_terminate_in_finally_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            MustReleaseResourceRule(),
            {
                "flow/a.py": """
                    from multiprocessing import Pool

                    def f(n):
                        pool = Pool(n)
                        try:
                            return pool.map(str, range(n))
                        finally:
                            pool.terminate()
                            pool.join()
                    """
            },
        )
        assert result.findings == []

    def test_close_as_next_statement_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            MustReleaseResourceRule(),
            {
                "flow/a.py": """
                    def f(path):
                        fh = open(path)
                        fh.close()
                        return 1
                    """
            },
        )
        assert result.findings == []

    def test_with_as_next_statement_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            MustReleaseResourceRule(),
            {
                "flow/a.py": """
                    def f(path):
                        fh = open(path)
                        with fh:
                            data = fh.read()
                        return data
                    """
            },
        )
        assert result.findings == []

    def test_try_finally_inside_if_arm_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            MustReleaseResourceRule(),
            {
                "flow/a.py": """
                    def f(path, flag):
                        if flag:
                            fh = open(path)
                            try:
                                data = fh.read()
                            finally:
                                fh.close()
                            return data
                        return None
                    """
            },
        )
        assert result.findings == []

    def test_try_finally_inside_for_body_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            MustReleaseResourceRule(),
            {
                "flow/a.py": """
                    def f(paths):
                        sizes = []
                        for path in paths:
                            fh = open(path)
                            try:
                                sizes.append(len(fh.read()))
                            finally:
                                fh.close()
                        return sizes
                    """
            },
        )
        assert result.findings == []

    def test_statement_before_try_finally_fires(self, tmp_path):
        # Conservative: ``x = 1`` cannot raise, but only the statement
        # right after the acquisition may guard it.
        result = run_rule(
            tmp_path,
            MustReleaseResourceRule(),
            {
                "flow/a.py": """
                    def f(path):
                        fh = open(path)
                        x = 1
                        try:
                            data = fh.read()
                        finally:
                            fh.close()
                        return data, x
                    """
            },
        )
        assert rule_ids(result) == ["REP105"]
        assert "exception path" in result.findings[0].message

    def test_release_in_both_if_arms_fires(self, tmp_path):
        # Conservative: a release counts only at the top level of the
        # acquisition's own block, not inside both arms of an if/else.
        result = run_rule(
            tmp_path,
            MustReleaseResourceRule(),
            {
                "flow/a.py": """
                    def f(path, keep):
                        fh = open(path)
                        if keep:
                            fh.close()
                        else:
                            fh.close()
                        return 1
                    """
            },
        )
        assert rule_ids(result) == ["REP105"]
        assert "normal return path" in result.findings[0].message


class TestRep106BudgetSafety:
    def test_broad_handler_over_checkpoint_fires(self, tmp_path):
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(x):
                        try:
                            _budget_checkpoint()
                            return work(x)
                        except Exception:
                            return None
                    """
            },
        )
        assert rule_ids(result) == ["REP106"]
        assert "swallow" in result.findings[0].message

    def test_injected_callable_is_budget_opaque(self, tmp_path):
        # Calling a bare parameter (an injected solver) may checkpoint.
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(solver, instance):
                        try:
                            return solver(instance)
                        except Exception:
                            return None
                    """
            },
        )
        assert rule_ids(result) == ["REP106"]

    def test_prior_budget_handler_shields(self, tmp_path):
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(x):
                        try:
                            _budget_checkpoint()
                            return work(x)
                        except BudgetExceeded:
                            raise
                        except Exception:
                            return None
                    """
            },
        )
        assert result.findings == []

    def test_rereaising_broad_handler_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(x):
                        try:
                            _budget_checkpoint()
                            return work(x)
                        except Exception:
                            log_failure(x)
                            raise
                    """
            },
        )
        assert result.findings == []

    def test_broad_handler_without_budget_region_is_clean(self, tmp_path):
        # No checkpoint, no BudgetExceeded, no injected-callable call:
        # swallowing here cannot lose a deadline.
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(path):
                        try:
                            return parse(path)
                        except Exception:
                            return None
                    """
            },
        )
        assert result.findings == []

    def test_silent_salvage_fires(self, tmp_path):
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(x, cache):
                        try:
                            return work(x)
                        except BudgetExceeded:
                            return cache.get(x)
                    """
            },
        )
        assert rule_ids(result) == ["REP106"]
        assert "degrad" in result.findings[0].message

    def test_marked_salvage_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(x, meta):
                        try:
                            return work(x)
                        except BudgetExceeded:
                            meta["degraded"] = True
                            partial = best_so_far()
                        return partial
                    """
            },
        )
        assert result.findings == []

    def test_unmarked_handler_in_loop_fires(self, tmp_path):
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(xs):
                        for x in xs:
                            try:
                                work(x)
                            except BudgetExceeded:
                                pass
                        return 1
                    """
            },
        )
        assert rule_ids(result) == ["REP106"]
        assert result.findings[0].line == 6  # the handler

    def test_break_before_marking_fires(self, tmp_path):
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(xs, meta):
                        for x in xs:
                            try:
                                work(x)
                            except BudgetExceeded:
                                if meta is None:
                                    break
                                meta["degraded"] = True
                        return 1
                    """
            },
        )
        assert rule_ids(result) == ["REP106"]
        assert result.findings[0].line == 7  # the statement holding break

    def test_marking_after_the_try_fires(self, tmp_path):
        # Conservative: the marking must sit in the handler itself.
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(x, meta):
                        try:
                            work(x)
                        except BudgetExceeded:
                            pass
                        meta["degraded"] = True
                        return 1
                    """
            },
        )
        assert rule_ids(result) == ["REP106"]

    def test_unmarked_handler_without_return_fires(self, tmp_path):
        # Conservative: the handler must mark even when the function
        # has no return to carry the salvage out.
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(x):
                        try:
                            work(x)
                        except BudgetExceeded:
                            pass
                    """
            },
        )
        assert rule_ids(result) == ["REP106"]

    def test_statement_before_marking_in_nested_try_fires(self, tmp_path):
        # log() may raise into the outer handler, which returns unmarked.
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(x, meta):
                        try:
                            try:
                                return work(x)
                            except BudgetExceeded:
                                log(x)
                                meta["degraded"] = True
                                return None
                        except ValueError:
                            return None
                    """
            },
        )
        assert rule_ids(result) == ["REP106"]
        assert result.findings[0].line == 7  # log(x)

    def test_statement_before_marking_under_finally_fires(self, tmp_path):
        # log() may raise through the finally on its way out.
        result = run_rule(
            tmp_path,
            BudgetExceptionSafetyRule(),
            {
                "flow/a.py": """
                    def f(x, meta, lock):
                        try:
                            value = work(x)
                        except BudgetExceeded:
                            log(x)
                            meta["degraded"] = True
                            value = None
                        finally:
                            lock.release()
                        return value
                    """
            },
        )
        assert rule_ids(result) == ["REP106"]


class TestRep107SetOrder:
    def test_set_iteration_into_append_fires(self, tmp_path):
        result = run_rule(
            tmp_path,
            SetOrderDeterminismRule(),
            {
                "flow/a.py": """
                    def f(nodes: set[int]) -> list[int]:
                        out = []
                        for n in nodes:
                            out.append(n)
                        return out
                    """
            },
        )
        assert rule_ids(result) == ["REP107"]

    def test_inferred_set_literal_fires(self, tmp_path):
        # No annotation: the set-typedness is inferred from the
        # assignment.
        result = run_rule(
            tmp_path,
            SetOrderDeterminismRule(),
            {
                "flow/a.py": """
                    def f(xs):
                        seen = {x for x in xs}
                        return list(seen)
                    """
            },
        )
        assert rule_ids(result) == ["REP107"]

    def test_sorted_iteration_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            SetOrderDeterminismRule(),
            {
                "flow/a.py": """
                    def f(nodes: set[int]) -> list[int]:
                        out = []
                        for n in sorted(nodes):
                            out.append(n)
                        return out
                    """
            },
        )
        assert result.findings == []

    def test_order_free_consumption_is_clean(self, tmp_path):
        # sum()/len()/min() don't observe iteration order, and
        # iterating into an accumulator that is itself a set is fine.
        result = run_rule(
            tmp_path,
            SetOrderDeterminismRule(),
            {
                "flow/a.py": """
                    def f(nodes: set[int]) -> int:
                        total = sum(nodes)
                        low = min(nodes)
                        copies = set(nodes)
                        return total + low + len(copies)
                    """
            },
        )
        assert result.findings == []


class TestRep108ServeStateMachine:
    def test_missing_staleness_keyword_fires(self, tmp_path):
        result = run_rule(
            tmp_path,
            ServeStateMachineRule(),
            {
                "serve/engine.py": """
                    def answer(value):
                        return ServeResult(value=value)
                    """
            },
        )
        assert rule_ids(result) == ["REP108"]
        assert "staleness" in result.findings[0].message

    def test_outside_serve_prefix_is_ignored(self, tmp_path):
        result = run_rule(
            tmp_path,
            ServeStateMachineRule(),
            {
                "flow/engine.py": """
                    def answer(value):
                        return ServeResult(value=value)
                    """
            },
        )
        assert result.findings == []

    def test_path_missing_construction_fires(self, tmp_path):
        # The fallthrough path returns a bare value: must-analysis at
        # exit lacks the "constructed" fact.
        result = run_rule(
            tmp_path,
            ServeStateMachineRule(),
            {
                "serve/engine.py": """
                    def answer(x, cached) -> ServeResult:
                        if x in cached:
                            return ServeResult(value=cached[x], staleness=0)
                        return None
                    """
            },
        )
        assert any(
            "some path" in f.message or "every path" in f.message
            for f in result.findings
        )

    def test_all_paths_construct_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            ServeStateMachineRule(),
            {
                "serve/engine.py": """
                    def answer(x, cached) -> ServeResult:
                        if x in cached:
                            return ServeResult(value=cached[x], staleness=0)
                        return ServeResult(value=None, staleness=1)
                    """
            },
        )
        assert result.findings == []

    def test_delegating_return_is_clean(self, tmp_path):
        # Returning another call's result delegates construction.
        result = run_rule(
            tmp_path,
            ServeStateMachineRule(),
            {
                "serve/engine.py": """
                    def answer(x) -> ServeResult:
                        return slow_path(x)
                    """
            },
        )
        assert result.findings == []

    def test_object_setattr_fires(self, tmp_path):
        result = run_rule(
            tmp_path,
            ServeStateMachineRule(),
            {
                "serve/engine.py": """
                    def patch(record, when):
                        object.__setattr__(record, "at", when)
                    """
            },
        )
        assert rule_ids(result) == ["REP108"]

    def test_frozen_mutation_record_assignment_fires(self, tmp_path):
        result = run_rule(
            tmp_path,
            ServeStateMachineRule(),
            {
                "serve/engine.py": """
                    def reprice(m: CustomerArrive):
                        m.node = 3
                        return m
                    """
            },
        )
        assert rule_ids(result) == ["REP108"]
        assert "frozen" in result.findings[0].message

    def test_raise_arm_then_construction_is_clean(self, tmp_path):
        result = run_rule(
            tmp_path,
            ServeStateMachineRule(),
            {
                "serve/engine.py": """
                    def answer(x) -> ServeResult:
                        if x is None:
                            raise ValueError("x")
                        return ServeResult(value=x, staleness=0)
                    """
            },
        )
        assert result.findings == []

    def test_return_only_inside_loop_fires(self, tmp_path):
        # An empty ``xs`` falls off the end of the body.
        result = run_rule(
            tmp_path,
            ServeStateMachineRule(),
            {
                "serve/engine.py": """
                    def answer(xs) -> ServeResult:
                        for x in xs:
                            return ServeResult(value=x, staleness=0)
                    """
            },
        )
        assert rule_ids(result) == ["REP108"]

    def test_returning_a_bound_result_fires(self, tmp_path):
        # Conservative: every return must return a call.
        result = run_rule(
            tmp_path,
            ServeStateMachineRule(),
            {
                "serve/engine.py": """
                    def answer(x) -> ServeResult:
                        r = ServeResult(value=x, staleness=0)
                        return r
                    """
            },
        )
        assert rule_ids(result) == ["REP108"]

    def test_return_under_finally_fires(self, tmp_path):
        result = run_rule(
            tmp_path,
            ServeStateMachineRule(),
            {
                "serve/engine.py": """
                    def answer(x, lock) -> ServeResult:
                        try:
                            if x is None:
                                return fallback()
                        finally:
                            lock.release()
                        return ServeResult(value=x, staleness=0)
                    """
            },
        )
        assert rule_ids(result) == ["REP108"]


class TestJustifiedSuppression:
    LEAKY = """
        def f(name, keep):
            shm = SharedMemory(name=name){directive}
            if keep:
                shm.close()
            return 1
        """

    def test_justified_directive_suppresses(self, tmp_path):
        src = self.LEAKY.format(
            directive="  # reprolint: disable=REP105 -- fixture leak"
        )
        result = run_rule(
            tmp_path, MustReleaseResourceRule(), {"flow/a.py": src}
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_unjustified_directive_is_ignored(self, tmp_path):
        # REP105 is justification-only: a bare disable does nothing.
        src = self.LEAKY.format(
            directive="  # reprolint: disable=REP105"
        )
        result = run_rule(
            tmp_path, MustReleaseResourceRule(), {"flow/a.py": src}
        )
        assert rule_ids(result) == ["REP105"]
