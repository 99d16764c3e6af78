"""Run the MCFS performance benchmark (see README.md in this directory).

Usage, from the repository root::

    python3 benchmarks/perf/run.py --workload serve-churn-2048 --seed 3 --trace 0
    python3 benchmarks/perf/run.py --workload all --trace 1
    python3 benchmarks/perf/run.py --workload all --seed 0 --out runs-a.jsonl
    python3 benchmarks/perf/run.py --compare runs-a.jsonl runs-b.jsonl
    python3 benchmarks/perf/run.py --summarize runs-a.jsonl --label "set A"

A run prints one line per metric, then, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every correctness check passed.  ``--workload all`` runs
each workload of ``BENCHMARK.json`` in its own subprocess.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Environment knobs that would change what the program does; cleared so
#: a caller's environment cannot change what is measured.
CLEARED_ENV = ("REPRO_WORKERS", "REPRO_ORACLE", "REPRO_ORACLE_DIR")
ONE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _parser(spec: dict[str, Any]) -> argparse.ArgumentParser:
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[*names, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="length of one run, set-up included (default: run_seconds)",
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append one JSON row per run to this file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--summarize", metavar="RUNS")
    p.add_argument("--label", default="", help="ledger row label (--summarize)")
    return p


def _append(path: str, args: argparse.Namespace, name: str, result: dict) -> None:
    row = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "result": result,
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def _report(result: Any, workload: Any, args: argparse.Namespace) -> None:
    loop = "closed loop, 1 client" if workload.kind == "serve" else "serial"
    print(
        f"{result.workload}  seed {args.seed}  {result.reps} timed reps, "
        f"{result.steps} {workload.step_name}  ({loop})"
    )
    for name, value in {**result.metrics, **result.diagnostics}.items():
        unit = result.units.get(name, "s")
        print(f"  {name:36} {value:14.6g} {unit}")
    print(
        f"  attempted {result.attempted}  failed {result.failed}  "
        f"correct {'yes' if result.correct else 'NO'}"
    )
    for problem in result.problems[:20]:
        print(f"  problem: {problem}")


def _run_one(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"benchmark: no program source at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    import workloads

    workload = workloads.make(args.workload)
    spans_path = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    result = harness.measure(
        args.workload,
        workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        spans_path=spans_path,
    )
    _report(result, workload, args)
    if spans_path:
        print(f"  spans written to {spans_path}")
    doc = result.as_json()
    if args.out:
        _append(args.out, args, args.workload, doc)
    print(json.dumps(doc, sort_keys=True))
    return 0 if result.correct else 1


def _run_all(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    combined: dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {}
    }
    for w in spec["workloads"]:
        name = w["name"]
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            doc = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})")
            combined["correct"] = False
            continue
        if args.out:
            _append(args.out, args, name, doc)
        combined["correct"] &= doc["correct"] and proc.returncode == 0
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for metric, value in doc["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    args = _parser(spec).parse_args(argv)
    if args.compare:
        import ledger

        lines, code = ledger.compare(*args.compare, spec["end_to_end"])
        print("\n".join(lines))
        return code
    if args.summarize:
        import ledger

        print(json.dumps(ledger.summarize(args.summarize, args.label)))
        return 0
    if args.workload is None:
        print("benchmark: give --workload, --compare or --summarize", file=sys.stderr)
        return 2
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    for var in ONE_THREAD_ENV:
        os.environ[var] = "1"
    if args.workload == "all":
        return _run_all(args, spec)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
