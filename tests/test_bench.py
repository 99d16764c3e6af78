"""Tests for the benchmark harness and reporting."""

from __future__ import annotations

import io
import json

import pytest

from repro.bench import experiments as ex
from repro.bench.harness import (
    BenchRow,
    best_objective,
    load_rows,
    objective_ratios,
    run_solvers,
    save_rows,
    solver_row,
)
from repro.bench.reporting import format_series, format_table, paper_shape_summary
from tests.conftest import build_random_instance


class TestSolverRow:
    def test_successful_row(self):
        inst = build_random_instance(0, cap_range=(3, 6))
        row = solver_row(inst, "wma", params={"n": 30})
        assert row.status == "ok"
        assert row.objective > 0
        assert row.params == {"n": 30}
        assert not row.failed

    def test_timeout_becomes_row(self):
        inst = build_random_instance(
            1, n=60, m=25, l=40, k=8, cap_range=(4, 8)
        )
        row = solver_row(inst, "exact", time_limit=1e-4)
        assert row.status == "timeout"
        assert row.failed
        assert row.objective is None

    def test_infeasible_becomes_error_row(self):
        from repro.core.instance import MCFSInstance
        from tests.conftest import build_two_component_network

        inst = MCFSInstance(
            network=build_two_component_network(),
            customers=(0, 3),
            facility_nodes=(1, 4),
            capacities=(5, 5),
            k=1,
        )
        row = solver_row(inst, "wma")
        assert row.status == "error"
        assert "error" in row.meta

    def test_cells(self):
        row = BenchRow(
            label="x", method="wma", objective=1.23456, runtime_sec=0.5,
            params={"n": 10},
        )
        cells = row.cells()
        assert cells["method"] == "wma"
        assert cells["n"] == 10
        assert cells["objective"] == 1.2


class TestRunSolvers:
    def test_runs_all_methods(self):
        inst = build_random_instance(2, cap_range=(3, 6))
        rows = run_solvers(inst, ["wma", "hilbert", "random"])
        assert [r.method for r in rows] == ["wma", "hilbert", "random"]
        assert all(r.status == "ok" for r in rows)

    def test_workers_reach_every_method(self):
        # ``workers`` is a universal option: methods without a distance
        # fan-out accept and ignore it.
        inst = build_random_instance(2, cap_range=(3, 6))
        rows = run_solvers(inst, ["wma", "brnn"], workers=1)
        assert [r.method for r in rows] == ["wma", "brnn"]
        assert all(r.status == "ok" for r in rows)
        serial = run_solvers(inst, ["wma", "brnn"])
        assert [r.objective for r in rows] == [r.objective for r in serial]

    def test_helpers(self):
        rows = [
            BenchRow("a", "wma", 10.0, 0.1),
            BenchRow("a", "hilbert", 20.0, 0.1),
            BenchRow("a", "exact", None, None, status="timeout"),
        ]
        assert best_objective(rows) == 10.0
        ratios = objective_ratios(rows)
        assert ratios["hilbert"] == pytest.approx(2.0)
        assert "exact" not in ratios


class TestRowPersistence:
    def test_round_trip(self):
        rows = [
            BenchRow("a", "wma", 10.0, 0.1, params={"n": 5}),
            BenchRow("a", "exact", None, None, status="timeout"),
        ]
        buf = io.StringIO()
        save_rows(rows, buf)
        buf.seek(0)
        loaded = load_rows(buf)
        assert [r.as_record() for r in loaded] == [
            r.as_record() for r in rows
        ]

    def test_load_ignores_unknown_keys(self):
        # Rows written by a newer harness may carry extra fields; the
        # reader must skip them instead of crashing.
        row = BenchRow("a", "wma", 10.0, 0.1, metrics={"dijkstra.runs": 3})
        records = [row.as_record()]
        records[0]["future_field"] = {"nested": True}
        buf = io.StringIO(json.dumps(records))
        loaded = load_rows(buf)
        assert len(loaded) == 1
        assert loaded[0].objective == 10.0
        assert loaded[0].metrics == {"dijkstra.runs": 3}
        assert not hasattr(loaded[0], "future_field")


class TestReporting:
    def test_format_table(self):
        rows = [
            BenchRow("a", "wma", 10.0, 0.1, params={"n": 5}),
            BenchRow("a", "exact", None, None, status="timeout", params={"n": 5}),
        ]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "wma" in text
        assert "fail" in text

    def test_format_table_plain_dicts(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 3, "c": "x"}])
        assert "a" in text and "c" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_series(self):
        rows = [
            BenchRow("a", "wma", 10.0, 0.1, params={"n": 5}),
            BenchRow("a", "wma", 12.0, 0.2, params={"n": 10}),
            BenchRow("a", "hilbert", 15.0, 0.05, params={"n": 5}),
        ]
        text = format_series(rows, x_key="n")
        assert "wma" in text
        assert "hilbert" in text
        assert "fail" in text  # hilbert has no n=10 point

    def test_paper_shape_summary(self):
        rows = [
            BenchRow("a", "wma", 10.0, 0.1, params={"n": 5}),
            BenchRow("a", "hilbert", 20.0, 0.2, params={"n": 5}),
        ]
        summary = paper_shape_summary(rows)
        assert summary["wma"]["mean_ratio_to_best"] == 1.0
        assert summary["hilbert"]["mean_ratio_to_best"] == 2.0


class TestExperimentFactories:
    def test_fig6_cases_built(self):
        for factory in (
            ex.fig6a_cases,
            ex.fig6b_cases,
            ex.fig6c_cases,
            ex.fig6d_cases,
        ):
            cases = factory(sizes=(128,), seed=1)
            assert len(cases) == 1
            params, inst = cases[0]
            assert params["n"] == 128
            assert inst.m >= 1

    def test_fig7_cases_built(self):
        cases = ex.fig7d_cases(sizes=(128,), seed=1)
        _, inst = cases[0]
        assert inst.network.n_nodes >= 128

    def test_fig8a_l_sweep(self):
        cases = ex.fig8a_cases(n=256, fracs=(0.4, 1.0), seeds=(0,))
        ls = [inst.l for _, inst in cases]
        assert ls[0] < ls[1]

    def test_fig9a_reports_measured_degree(self):
        cases = ex.fig9a_cases(n=128, alphas=(1.0,), seed=0)
        params, _ = cases[0]
        assert params["avg_degree"] > 0

    def test_table4_has_four_cities(self):
        cases = ex.table4_cases(scale=0.08, m=24, k=4)
        assert {p["city"] for p, _ in cases} == {
            "aalborg",
            "riga",
            "copenhagen",
            "las_vegas",
        }

    def test_include_exact_gate(self):
        small = ex.fig6a_cases(sizes=(128,), seed=0)[0][1]
        assert ex.include_exact(small)
        big_cases = ex.fig6a_cases(sizes=(1024,), seed=0)
        assert not ex.include_exact(big_cases[0][1])

    def test_fig12b_instance(self):
        inst = ex.fig12b_instance(scale=0.05, n_venues=40, m=30, k=12)
        assert inst.l == 40
        assert inst.m == 30
