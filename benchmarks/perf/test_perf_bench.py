"""Self-test of the perf benchmark at tiny sizes.

Run with:
    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import harness
import layers
import ledger
import pytest
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "solve-uniform-2048": {"n": 256},
    "solve-clustered-1024": {"n": 256},
    "serve-churn-2048": {"n": 256, "mutations": 200, "batch": 16},
    "serve-arrivals-city-ch": {
        "n": 16, "facilities": 4, "initial": 4, "mutations": 200, "batch": 20,
    },
}


def _measure(name: str, **kwargs):
    return harness.measure(
        name,
        workloads.make(name, **TINY[name]),
        seed=0,
        seconds=0.01,
        **{"traced": False, **kwargs},
    )


def _declared(section: str) -> dict[str, tuple[str, str]]:
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert list(workloads.SPECS) == [w["name"] for w in SPEC["workloads"]]
    assert set(TINY) == set(workloads.SPECS)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_match_benchmark_json(name):
    result = _measure(name)
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted >= 1
    declared = _declared("end_to_end")
    assert harness.END_TO_END == declared
    emitted = result.as_json()["metrics"]
    assert {k: v["unit"] for k, v in emitted.items()} == {
        k: unit for k, (unit, _) in declared.items()
    }
    assert all(v["value"] > 0 for v in emitted.values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_covers_wall_and_restores_patches(name, tmp_path):
    originals = {(id(o), a): vars(o)[a] for o, a, _, _ in layers.targets()}
    spans = tmp_path / "spans.jsonl"
    result = _measure(name, traced=True, spans_path=str(spans))
    assert result.correct, result.problems
    declared = _declared("per_layer")
    assert harness.PER_LAYER == declared
    assert {k: result.units[k] for k in result.metrics} == {
        k: unit for k, (unit, _) in declared.items()
    }
    # Coverage counts program layers only, so it fails if the wrappers miss
    # the work and the benchmark's own frame absorbs it.
    assert abs(result.metrics["trace.coverage"] - 1.0) <= 0.01
    for owner, attr, _, _ in layers.targets():
        assert vars(owner)[attr] is originals[(id(owner), attr)], attr
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert rows and rows[0]["name"] == "rep"


def test_tampered_objective_fails_the_run(monkeypatch):
    real = workloads.WMASolver.solve

    def tampered(self):
        solution = real(self)
        return dataclasses.replace(solution, objective=solution.objective + 1.0)

    monkeypatch.setattr(workloads.WMASolver, "solve", tampered)
    result = _measure("solve-clustered-1024")
    assert not result.correct
    assert result.failed == result.attempted


def test_tampered_cost_fails_the_run(monkeypatch):
    real = workloads.assign_all

    def tampered(*args, **kwargs):
        out = real(*args, **kwargs)
        out.cost += 1.0
        return out

    monkeypatch.setattr(workloads, "assign_all", tampered)
    result = _measure("serve-churn-2048")
    assert not result.correct
    assert result.failed == result.attempted


def _runs(
    path: Path, timings: dict[int, float], dist: float = 1.0, correct: bool = True
) -> str:
    """A run file in which seed ``s`` reads ``timings[s]`` on every metric
    but ``mean_dist``, which reads ``dist``."""
    with path.open("w") as fh:
        for seed, value in timings.items():
            metrics = {
                m["name"]: {
                    "value": dist if m["name"] == "mean_dist" else value,
                    "unit": m["unit"],
                }
                for m in SPEC["end_to_end"]
            }
            doc = {"correct": correct, "attempted": 1, "failed": 0, "metrics": metrics}
            row = {"workload": "w", "seed": seed, "trace": 0, "result": doc}
            fh.write(json.dumps(row) + "\n")
    return str(path)


def test_compare_flags_worse_unresolved_and_exact(tmp_path):
    e2e = SPEC["end_to_end"]
    base = _runs(tmp_path / "a", {s: 1.0 for s in range(5)})
    same = _runs(tmp_path / "b", {s: 1.0 for s in range(5)})
    lines, code = ledger.compare(base, same, e2e)
    assert code == 0 and all(line.endswith("ok exact") for line in lines)

    slower = _runs(tmp_path / "c", {s: 1.3 for s in range(5)})
    lines, code = ledger.compare(base, slower, e2e)
    assert code == 1
    assert all(" worse" in line for line in lines if " mean_dist " not in line)

    noisy = _runs(tmp_path / "d", {0: 0.5, 1: 0.7, 2: 1.0, 3: 1.3, 4: 1.5})
    lines, code = ledger.compare(base, noisy, e2e)
    assert code == 0
    assert all("unresolved" in line for line in lines if " mean_dist " not in line)

    broken = _runs(tmp_path / "e", {s: 1.0 for s in range(5)}, correct=False)
    assert ledger.compare(base, broken, e2e)[1] == 1


def test_compare_requires_exact_quality(tmp_path):
    """A quality change far inside mean_dist's bound still fails."""
    e2e = SPEC["end_to_end"]
    base = _runs(tmp_path / "a", {s: 1.0 for s in range(5)})
    drifted = _runs(tmp_path / "b", {s: 1.0 for s in range(5)}, dist=1.0 + 1e-9)
    lines, code = ledger.compare(base, drifted, e2e)
    assert code == 1
    assert [line.split()[-1] for line in lines if " mean_dist " in line] == ["inexact"]


def test_run_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, a run exits non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "perf",
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "solve-uniform-2048", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
