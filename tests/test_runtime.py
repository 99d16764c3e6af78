"""Tests for the solver runtime: budgets, SolverOptions, fallback chains."""

from __future__ import annotations

import time

import pytest

import repro
from repro import SOLVERS, MCFSInstance, SolverOptions, solve
from repro.bench.harness import run_solvers, solver_row
from repro.core.validation import validate_solution
from repro.datagen import uniform_instance
from repro.errors import BudgetExceeded, SolverError
from repro.obs import metrics
from repro.runtime import (
    DEFAULT_CHAINS,
    Budget,
    chain_for,
    checkpoint,
    grace,
    normalize_options,
    solve_with_fallback,
    spec_for,
    use_budget,
    valid_options,
)


@pytest.fixture(scope="module")
def instance() -> MCFSInstance:
    return uniform_instance(96, seed=3)


# ----------------------------------------------------------------------
# Budget
# ----------------------------------------------------------------------
class TestBudget:
    def test_checkpoint_noop_without_budget(self):
        checkpoint()  # must not raise

    def test_expired_budget_raises_at_checkpoint(self):
        with use_budget(Budget(0.0)):
            with pytest.raises(BudgetExceeded):
                checkpoint()

    def test_unexpired_budget_passes(self):
        with use_budget(Budget(60.0)):
            checkpoint()

    def test_budget_exceeded_is_solver_error(self):
        assert issubclass(BudgetExceeded, SolverError)

    def test_elapsed_remaining_expired(self):
        b = Budget(60.0)
        assert 0.0 <= b.elapsed() < 1.0
        assert 59.0 < b.remaining() <= 60.0
        assert not b.expired()
        assert Budget(0.0).expired()

    def test_nested_budget_clamped_to_outer_deadline(self):
        with use_budget(Budget(0.0)):
            inner = Budget(100.0)
            with use_budget(inner):
                with pytest.raises(BudgetExceeded):
                    checkpoint()

    def test_nested_budget_may_shorten(self):
        with use_budget(Budget(100.0)):
            with use_budget(Budget(0.0)):
                with pytest.raises(BudgetExceeded):
                    checkpoint()

    def test_grace_suspends_enforcement(self):
        with use_budget(Budget(0.0)):
            with grace():
                checkpoint()
            with pytest.raises(BudgetExceeded):
                checkpoint()

    def test_scope_restores_previous(self):
        from repro.runtime.budget import active

        assert active() is None
        with use_budget(Budget(1.0)) as b:
            assert active() is b
        assert active() is None

    def test_expiry_bumps_counter(self):
        reg = metrics.Registry()
        with metrics.use(reg):
            with use_budget(Budget(0.0)):
                with pytest.raises(BudgetExceeded):
                    checkpoint()
        assert reg.as_dict()["runtime.budget_exceeded"] == 1


# ----------------------------------------------------------------------
# SolverOptions + normalization
# ----------------------------------------------------------------------
class TestSolverOptions:
    def test_coerce_dict_splits_extras(self):
        opts = SolverOptions.coerce({"seed": 3, "tie_breaking": "cost"})
        assert opts.seed == 3
        assert opts.extras == {"tie_breaking": "cost"}

    def test_coerce_none_and_identity(self):
        assert SolverOptions.coerce(None) == SolverOptions()
        opts = SolverOptions(seed=1)
        assert SolverOptions.coerce(opts) is opts

    def test_coerce_rejects_junk(self):
        with pytest.raises(SolverError):
            SolverOptions.coerce(42)

    def test_unknown_kwarg_names_valid_options(self):
        with pytest.raises(SolverError) as exc:
            normalize_options("hilbert", None, {"bogus": 1})
        msg = str(exc.value)
        assert "bogus" in msg and "hilbert" in msg
        for name in ("seed", "time_limit", "workers", "oracle"):
            assert name in msg

    def test_unknown_extras_in_options_rejected(self):
        with pytest.raises(SolverError):
            normalize_options(
                "wma", SolverOptions(extras={"mip_gap": 0.1}), {}
            )

    def test_universal_kwargs_override_options(self):
        opts = normalize_options(
            "random", SolverOptions(seed=1), {"seed": 7}
        )
        assert opts.seed == 7

    def test_direct_solver_specific_kwarg_rejected(self):
        with pytest.raises(SolverError) as exc:
            normalize_options("wma", None, {"tie_breaking": "cost"})
        msg = str(exc.value)
        assert "tie_breaking" in msg and "extras" in msg
        assert "valid options for 'wma'" in msg

    def test_valid_options_include_extras(self):
        assert "mip_gap" in valid_options("exact")
        assert "pool_size" in valid_options("kmedian-ls")

    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError, match="unknown solver method"):
            spec_for("nope")

    def test_merged_merges_extras(self):
        opts = SolverOptions(seed=1, extras={"a": 1}).merged(
            seed=2, extras={"b": 2}
        )
        assert opts.seed == 2
        assert opts.extras == {"a": 1, "b": 2}


# ----------------------------------------------------------------------
# Signature consistency across every registered solver
# ----------------------------------------------------------------------
class TestSignatureConsistency:
    def test_every_solver_is_a_registered_entry_point(self):
        for method, solver in SOLVERS.items():
            assert getattr(solver, "__solver_method__", None) == method
            assert spec_for(method) is solver.__solver_spec__

    def test_every_solver_accepts_solver_options(self, instance):
        for method in SOLVERS:
            sol = SOLVERS[method](instance, options=SolverOptions())
            validate_solution(instance, sol)

    def test_every_solver_accepts_all_universal_kwargs(self, instance):
        # seed/workers/time_limit/oracle are accepted uniformly,
        # including by solvers that ignore them.
        opts = SolverOptions(seed=0, time_limit=300.0, workers=1)
        for method in SOLVERS:
            sol = SOLVERS[method](instance, options=opts)
            validate_solution(instance, sol)

    def test_every_solver_rejects_unknown_kwargs_by_name(self, instance):
        for method in SOLVERS:
            with pytest.raises(SolverError, match="no_such_option"):
                SOLVERS[method](instance, no_such_option=1)

    def test_declared_extras_cover_the_historic_kwargs(self):
        assert spec_for("exact").extras == {"mip_gap"}
        assert spec_for("kmedian-ls").extras == {"max_rounds", "pool_size"}
        assert "tie_breaking" in spec_for("wma").extras
        assert "max_rounds" in spec_for("wma-ls").extras
        assert spec_for("hilbert").extras == frozenset()

    def test_default_chains_cover_every_solver(self):
        assert set(DEFAULT_CHAINS) == set(SOLVERS)
        for method, chain in DEFAULT_CHAINS.items():
            assert chain[0] == method
            if method != "hilbert":
                assert chain[-1] == "hilbert"


# ----------------------------------------------------------------------
# chain_for
# ----------------------------------------------------------------------
class TestChainFor:
    def test_defaults(self):
        assert chain_for("exact") == ("exact", "wma", "hilbert")
        assert chain_for("hilbert") == ("hilbert",)
        assert chain_for("wma", "auto") == DEFAULT_CHAINS["wma"]

    def test_disable(self):
        assert chain_for("exact", False) == ("exact",)

    def test_explicit_string_dedupes_and_leads_with_method(self):
        assert chain_for("exact", "exact, wma ,hilbert") == (
            "exact",
            "wma",
            "hilbert",
        )
        assert chain_for("wma", "hilbert") == ("wma", "hilbert")

    def test_explicit_sequence(self):
        assert chain_for("exact", ["wma"]) == ("exact", "wma")

    def test_unknown_method_in_chain_rejected(self):
        with pytest.raises(SolverError):
            chain_for("wma", "gurobi")


# ----------------------------------------------------------------------
# Fallback runner + end-to-end solve()
# ----------------------------------------------------------------------
class TestFallbackRuntime:
    def test_acceptance_exact_tiny_budget_returns_feasible(self):
        # ISSUE acceptance: on the smoke profile, solve(method="exact",
        # time_limit=T) with a deliberately small T returns a feasible
        # validated solution via the fallback chain within ~1.2*T plus
        # fallback overhead -- never an unhandled exception.
        smoke = uniform_instance(256, seed=0)
        T = 0.05
        reg = metrics.Registry()
        started = time.perf_counter()
        with metrics.use(reg):
            sol = solve(
                smoke, method="exact", options=SolverOptions(time_limit=T)
            )
        elapsed = time.perf_counter() - started
        validate_solution(smoke, sol)
        counters = reg.as_dict()
        assert counters.get("runtime.fallbacks", 0) >= 1
        assert sol.meta["runtime"]["fallbacks"] >= 1
        assert sol.meta["runtime"]["requested"] == "exact"
        # Generous constant absorbs the terminal fallback's own cost on
        # slow CI machines; the point is "bounded", not "instant".
        assert elapsed < 1.2 * T + 2.0

    def test_runner_records_attempts(self, instance):
        reg = metrics.Registry()
        with metrics.use(reg):
            result = solve_with_fallback(
                instance, ("exact", "wma", "hilbert"), deadline=0.05
            )
        assert result.requested == "exact"
        assert result.method in ("exact", "wma", "hilbert")
        assert result.runs[-1].status == "ok"
        assert all(r.status != "ok" for r in result.runs[:-1])
        assert reg.as_dict()["runtime.attempts"] == len(result.runs)
        validate_solution(instance, result.solution)

    def test_fallback_attempts_keep_the_oracle(self, instance):
        # Every universal option but time_limit reaches each attempt, so
        # the chain solves on oracle streams, not kernel ones.
        opts = SolverOptions(oracle="alt")
        reg = metrics.Registry()
        with metrics.use(reg):
            result = solve_with_fallback(instance, ["wma"], options=opts)
        counters = reg.as_dict()
        assert counters["oracle.streams"] > 0
        assert counters["incremental.streams"] == 0
        direct = solve(instance, method="wma", options=opts)
        assert result.solution.objective == direct.objective

    def test_no_budget_no_fallback_meta(self, instance):
        sol = solve(instance, method="wma")
        assert "runtime" not in sol.meta

    def test_fallback_false_with_deadline_raises_on_expiry(self, instance):
        with pytest.raises(SolverError):
            solve(instance, method="exact", deadline=1e-4, fallback=False)

    def test_explicit_fallback_without_deadline(self, instance):
        sol = solve(instance, method="wma", fallback="auto")
        validate_solution(instance, sol)
        assert sol.meta["runtime"]["method_used"] == "wma"
        assert sol.meta["runtime"]["fallbacks"] == 0

    def test_empty_chain_rejected(self, instance):
        with pytest.raises(SolverError):
            solve_with_fallback(instance, ())

    def test_unknown_method_still_value_error(self, instance):
        with pytest.raises(ValueError, match="unknown method"):
            solve(instance, method="gurobi")

    def test_instance_solve_entry_point(self, instance):
        sol = instance.solve("hilbert")
        validate_solution(instance, sol)
        sol = instance.solve(
            "exact", options=SolverOptions(time_limit=0.05)
        )
        validate_solution(instance, sol)

    def test_solution_runtime_meta_shape(self, instance):
        sol = solve(instance, method="exact", deadline=0.05)
        meta = sol.meta["runtime"]
        assert set(meta) >= {
            "requested",
            "method_used",
            "fallbacks",
            "degraded",
            "attempts",
            "deadline",
        }
        for attempt in meta["attempts"]:
            assert attempt["status"] in ("ok", "timeout", "error")


# ----------------------------------------------------------------------
# Harness + CLI surfaces
# ----------------------------------------------------------------------
class TestSurfaces:
    def test_solver_row_deadline_never_fails(self, instance):
        row = solver_row(instance, "exact", deadline=0.05)
        assert row.status == "ok"
        assert row.objective is not None
        assert row.meta["runtime"]["fallbacks"] >= 1

    def test_run_solvers_deadline_all_ok(self, instance):
        rows = run_solvers(
            instance, ("wma", "hilbert", "exact"), deadline=0.1
        )
        assert [r.status for r in rows] == ["ok", "ok", "ok"]

    def test_run_solvers_budget_free_unchanged(self, instance):
        rows = run_solvers(instance, ("wma", "hilbert"))
        assert all(r.status == "ok" for r in rows)
        assert all("runtime" not in r.meta for r in rows)

    def test_cli_solve_deadline_and_fallback(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io.serialization import save_instance

        path = tmp_path / "inst.npz"
        save_instance(uniform_instance(64, seed=1), str(path))
        rc = main(
            [
                "solve",
                str(path),
                "--method",
                "exact",
                "--deadline",
                "0.05",
                "--fallback",
                "auto",
            ]
        )
        assert rc == 0

    def test_cli_time_limit_applies_to_every_method(self, tmp_path):
        # --time-limit used to be wired for the exact method only; a
        # generous limit on wma must now be accepted and still solve.
        from repro.cli import main
        from repro.io.serialization import save_instance

        path = tmp_path / "inst.npz"
        save_instance(uniform_instance(64, seed=1), str(path))
        rc = main(
            ["solve", str(path), "--method", "wma", "--time-limit", "300"]
        )
        assert rc == 0

    def test_cli_fallback_none_parses(self):
        from repro.cli import _parse_fallback

        assert _parse_fallback(None) is None
        assert _parse_fallback("none") is False
        assert _parse_fallback("auto") == "auto"
        assert _parse_fallback("wma,hilbert") == "wma,hilbert"

    def test_public_exports(self):
        assert repro.SolverOptions is SolverOptions
        assert repro.BudgetExceeded is BudgetExceeded
        assert hasattr(repro.runtime, "solve_with_fallback")
