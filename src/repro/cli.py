"""Command-line interface for the MCFS reproduction library.

Subcommands::

    python -m repro generate --kind uniform --n 512 -o instance.npz
    python -m repro solve instance.npz --method wma -o solution.json
    python -m repro stats instance.npz
    python -m repro compare instance.npz --methods wma,hilbert,exact
    python -m repro bench --experiment fig6a
    python -m repro profile --kind uniform --n 256 --seed 0 -o report.json
    python -m repro oracle build --kind uniform --n 256 --seed 0
    python -m repro serve instance.npz --trace trace.jsonl --batch 64
    python -m repro lint --format json

``generate`` builds a synthetic instance file, ``solve`` runs one solver
and writes the solution, ``stats`` prints network/instance statistics,
``compare`` prints a side-by-side solver table, ``bench`` regenerates
a paper experiment by id, ``profile`` runs one solver under the
observability layer (:mod:`repro.obs`), emits a structured metrics/span
report, and can gate counters against a committed baseline (the CI
benchmark-smoke job), ``oracle`` builds or inspects a precomputed
contraction hierarchy (:mod:`repro.network.ch`), whose blobs are keyed
by network fingerprint so CI can cache them across runs, ``serve``
replays (or synthesizes) a mutation trace through the online serving
engine (:mod:`repro.serve`), reporting throughput, staleness, and the
``serve.*`` counters, optionally gated against a committed baseline --
and ``lint`` runs reprolint, the repo-specific
static-analysis pass (:mod:`repro.analysis`; rule catalogue in
``docs/dev.md``).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro import SOLVERS, solve, validate_solution
from repro.bench.solution_stats import compare_solutions
from repro.bench.reporting import format_series, format_table
from repro.io.serialization import load_instance, save_instance, save_solution

# (load_solution is imported lazily inside the handlers that need it.)

EXPERIMENTS = (
    "fig6a", "fig6b", "fig6c", "fig6d",
    "fig7a", "fig7b", "fig7c", "fig7d",
    "fig8a", "fig8b", "fig8c", "fig8d",
    "fig9a", "fig9b", "fig10", "fig12a", "fig13a", "fig13b",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multicapacity Facility Selection in Networks (ICDE 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic instance")
    gen.add_argument("--kind", choices=("uniform", "clustered"), default="uniform")
    gen.add_argument("--n", type=int, default=512, help="network size in nodes")
    gen.add_argument("--alpha", type=float, default=2.0, help="density parameter")
    gen.add_argument("--clusters", type=int, default=20)
    gen.add_argument("--customer-frac", type=float, default=0.1)
    gen.add_argument("--capacity", type=int, default=20)
    gen.add_argument("--k-frac", type=float, default=0.1, help="k as fraction of m")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True, help="instance .npz path")

    slv = sub.add_parser("solve", help="solve an instance file")
    slv.add_argument("instance", help="instance .npz path")
    slv.add_argument(
        "--method", choices=sorted(SOLVERS), default="wma"
    )
    slv.add_argument("--seed", type=int, default=None)
    slv.add_argument(
        "--time-limit", type=float, default=None,
        help="wall-clock budget in seconds, enforced cooperatively for "
        "every method (the exact method additionally passes it to HiGHS)",
    )
    slv.add_argument(
        "--deadline", type=float, default=None,
        help="overall wall-clock deadline in seconds; on expiry the "
        "runtime degrades through the method's fallback chain and still "
        "returns a feasible solution",
    )
    slv.add_argument(
        "--fallback", default=None,
        help="fallback chain: 'auto' (default chain for the method), "
        "'none' to disable, or an explicit comma-separated list, e.g. "
        "'wma,hilbert'",
    )
    slv.add_argument("-o", "--output", default=None, help="solution .json path")

    sta = sub.add_parser("stats", help="print instance statistics")
    sta.add_argument("instance", help="instance .npz path")

    cmp_ = sub.add_parser("compare", help="run several solvers side by side")
    cmp_.add_argument("instance", help="instance .npz path")
    cmp_.add_argument(
        "--methods", default="wma,hilbert,wma-naive",
        help="comma-separated solver names",
    )
    cmp_.add_argument(
        "--deadline", type=float, default=None,
        help="per-method wall-clock deadline in seconds (cooperative; "
        "expired methods degrade through their fallback chain)",
    )
    cmp_.add_argument(
        "--fallback", default=None,
        help="fallback chain: 'auto' (per-method default), 'none' to "
        "disable, or an explicit comma-separated list",
    )

    ben = sub.add_parser("bench", help="regenerate a paper experiment")
    ben.add_argument("--experiment", choices=EXPERIMENTS, required=True)
    ben.add_argument(
        "--methods", default="wma,hilbert,wma-naive",
        help="comma-separated solver names",
    )
    ben.add_argument(
        "--workers", type=int, default=None,
        help="process count for distance fan-out in worker-aware solvers "
        "(default: REPRO_WORKERS env var, else serial); objectives are "
        "identical for any count",
    )

    ref = sub.add_parser(
        "refine", help="local-search refine a saved solution"
    )
    ref.add_argument("instance", help="instance .npz path")
    ref.add_argument("solution", help="solution .json path")
    ref.add_argument("--rounds", type=int, default=5)
    ref.add_argument("-o", "--output", default=None, help="refined .json path")

    exp = sub.add_parser(
        "export", help="export a scenario (and solution) as GeoJSON layers"
    )
    exp.add_argument("instance", help="instance .npz path")
    exp.add_argument("--solution", default=None, help="solution .json path")
    exp.add_argument("-o", "--output", required=True, help="output JSON path")

    prof = sub.add_parser(
        "profile",
        help="run one solver under full observability and emit a JSON report",
    )
    prof.add_argument(
        "instance", nargs="?", default=None,
        help="instance .npz path (omitted: generate a synthetic one)",
    )
    prof.add_argument("--method", choices=sorted(SOLVERS), default="wma")
    prof.add_argument(
        "--kind", choices=("uniform", "clustered"), default="uniform",
        help="synthetic kind when no instance file is given",
    )
    prof.add_argument("--n", type=int, default=256, help="synthetic network size")
    prof.add_argument("--seed", type=int, default=0, help="synthetic seed")
    prof.add_argument(
        "-o", "--output", default=None,
        help="report JSON path (default: stdout)",
    )
    prof.add_argument(
        "--spans-out", default=None,
        help="also export raw spans as JSON-lines to this path",
    )
    prof.add_argument(
        "--baseline", default=None,
        help="baseline JSON (see benchmarks/baselines/); exit 1 when any "
        "baselined counter regresses beyond tolerance",
    )
    prof.add_argument(
        "--tolerance", type=float, default=None,
        help="override the baseline file's tolerance (fraction, e.g. 0.2)",
    )
    prof.add_argument(
        "--workers", type=int, default=None,
        help="process count for distance fan-out in worker-aware solvers "
        "(default: REPRO_WORKERS env var, else serial)",
    )
    prof.add_argument(
        "--oracle", choices=("ch", "off"), default=None,
        help="distance oracle: 'ch' enables the contraction hierarchy, "
        "'off' disables it (default: REPRO_ORACLE env var); oracle.* "
        "and ch.* counters appear in the report either way",
    )

    orc = sub.add_parser(
        "oracle",
        help="build or inspect a precomputed contraction hierarchy",
    )
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    for name, help_text in (
        ("build", "build (or refresh) the hierarchy blob for an instance"),
        ("info", "report the hierarchy summary and cache status as JSON"),
    ):
        sp = orc_sub.add_parser(name, help=help_text)
        sp.add_argument(
            "instance", nargs="?", default=None,
            help="instance .npz path (omitted: generate a synthetic one)",
        )
        sp.add_argument(
            "--kind", choices=("uniform", "clustered"), default="uniform",
            help="synthetic instance kind when no instance file is given",
        )
        sp.add_argument(
            "--n", type=int, default=256, help="synthetic network size"
        )
        sp.add_argument(
            "--seed", type=int, default=0, help="synthetic seed"
        )
        sp.add_argument(
            "--cache-dir", default=None,
            help="oracle blob directory (default: REPRO_ORACLE_DIR env "
            "var, else .oracle-cache)",
        )
        if name == "info":
            sp.add_argument(
                "-o", "--output", default=None,
                help="info JSON path (default: stdout)",
            )

    srv = sub.add_parser(
        "serve",
        help="replay a mutation trace through the online serving engine",
    )
    srv.add_argument(
        "instance", nargs="?", default=None,
        help="instance .npz path (omitted: generate a synthetic one)",
    )
    srv.add_argument(
        "--kind", choices=("uniform", "clustered"), default="uniform",
        help="synthetic kind when no instance file is given",
    )
    srv.add_argument("--n", type=int, default=256, help="synthetic network size")
    srv.add_argument("--seed", type=int, default=0, help="synthetic seed")
    srv.add_argument(
        "--method", choices=sorted(SOLVERS), default="wma",
        help="solver for the initial facility selection",
    )
    srv.add_argument(
        "--trace", default=None,
        help="mutation trace (JSON-lines); with --synthesize the "
        "generated trace is written here instead",
    )
    srv.add_argument(
        "--synthesize", type=int, default=None, metavar="N",
        help="generate an N-mutation workload instead of reading --trace",
    )
    srv.add_argument(
        "--trace-seed", type=int, default=0,
        help="seed for --synthesize",
    )
    srv.add_argument(
        "--p-depart", type=float, default=0.3,
        help="departure share of the synthesized mix",
    )
    srv.add_argument(
        "--p-capacity", type=float, default=0.05,
        help="capacity re-rate share of the synthesized mix",
    )
    srv.add_argument(
        "--p-retime", type=float, default=0.0,
        help="edge-retime share of the synthesized mix",
    )
    srv.add_argument(
        "--batch", type=int, default=64,
        help="mutations per engine.apply() batch",
    )
    srv.add_argument(
        "--deadline", type=float, default=None,
        help="per-batch deadline in seconds (sheds work, stays feasible)",
    )
    srv.add_argument(
        "--max-batch", type=int, default=None,
        help="admission bound: mutations beyond this per batch are shed",
    )
    srv.add_argument(
        "--cache", type=int, default=8,
        help="solution-cache capacity for global re-solves (0 disables)",
    )
    srv.add_argument(
        "-o", "--output", default=None,
        help="summary JSON path (default: stdout)",
    )
    srv.add_argument(
        "--baseline", default=None,
        help="baseline JSON (see benchmarks/baselines/); exit 1 when any "
        "baselined counter regresses beyond tolerance",
    )
    srv.add_argument(
        "--tolerance", type=float, default=None,
        help="override the baseline file's tolerance (fraction, e.g. 0.25)",
    )

    lint = sub.add_parser(
        "lint",
        help="run reprolint, the repo-specific static-analysis pass",
    )
    from repro.analysis.lintcli import add_lint_arguments

    add_lint_arguments(lint)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datagen.instances import clustered_instance, uniform_instance

    if args.kind == "uniform":
        instance = uniform_instance(
            args.n,
            alpha=args.alpha,
            customer_frac=args.customer_frac,
            capacity=args.capacity,
            k_frac_of_m=args.k_frac,
            seed=args.seed,
        )
    else:
        instance = clustered_instance(
            args.n,
            n_clusters=args.clusters,
            alpha=args.alpha,
            customer_frac=args.customer_frac,
            capacity=args.capacity,
            k_frac_of_m=args.k_frac,
            seed=args.seed,
        )
    save_instance(instance, args.output)
    print(f"wrote {args.output}: {instance.describe()}")
    return 0


def _parse_fallback(raw: str | None):
    """Map the ``--fallback`` flag onto :func:`repro.runtime.chain_for` input."""
    if raw is None:
        return None
    value = raw.strip().lower()
    if value in ("none", "off", "false"):
        return False
    if value == "auto":
        return "auto"
    return raw


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.time_limit is not None:
        kwargs["time_limit"] = args.time_limit
    solution = solve(
        instance,
        method=args.method,
        deadline=args.deadline,
        fallback=_parse_fallback(args.fallback),
        **kwargs,
    )
    validate_solution(instance, solution)
    runtime_meta = solution.meta.get("runtime")
    if runtime_meta and runtime_meta.get("fallbacks"):
        print(
            f"note: {runtime_meta['requested']} fell back to "
            f"{runtime_meta['method_used']} "
            f"({runtime_meta['fallbacks']} failed attempt(s))"
        )
    print(format_table([solution.summary_row()], title=instance.name))
    if args.output:
        save_solution(solution, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    print(format_table([instance.describe()], title="instance"))
    print()
    print(format_table([instance.network.stats().as_row()], title="network"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in SOLVERS]
    if unknown:
        print(f"unknown methods: {', '.join(unknown)}", file=sys.stderr)
        return 2
    solutions = []
    for method in methods:
        solution = solve(
            instance,
            method=method,
            deadline=args.deadline,
            fallback=_parse_fallback(args.fallback),
        )
        validate_solution(instance, solution)
        solutions.append(solution)
    print(
        format_table(
            compare_solutions(instance, solutions),
            title=f"{instance.name} (m={instance.m}, l={instance.l}, k={instance.k})",
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import experiments as ex
    from repro.bench.harness import run_solvers

    factories = {
        "fig6a": (ex.fig6a_cases, "n"),
        "fig6b": (ex.fig6b_cases, "n"),
        "fig6c": (ex.fig6c_cases, "n"),
        "fig6d": (ex.fig6d_cases, "n"),
        "fig7a": (ex.fig7a_cases, "n"),
        "fig7b": (ex.fig7b_cases, "n"),
        "fig7c": (ex.fig7c_cases, "n"),
        "fig7d": (ex.fig7d_cases, "n"),
        "fig8a": (ex.fig8a_cases, "l_frac"),
        "fig8b": (ex.fig8b_cases, "m"),
        "fig8c": (ex.fig8c_cases, "m"),
        "fig8d": (ex.fig8d_cases, "k"),
        "fig9a": (ex.fig9a_cases, "avg_degree"),
        "fig9b": (ex.fig9b_cases, "c"),
        "fig10": (ex.fig10_cases, "m"),
        "fig12a": (ex.fig12a_cases, "k"),
        "fig13a": (ex.fig13a_cases, "k"),
        "fig13b": (ex.fig13b_cases, "k"),
    }
    factory, x_key = factories[args.experiment]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = []
    for params, instance in factory():
        case_methods = list(methods)
        if "exact" in case_methods and not ex.include_exact(instance):
            case_methods.remove("exact")
        rows += run_solvers(
            instance, case_methods, params=params, workers=args.workers
        )
    print(format_series(rows, x_key=x_key, value="objective",
                        title=f"{args.experiment} -- objective"))
    print()
    print(format_series(rows, x_key=x_key, value="runtime_sec",
                        title=f"{args.experiment} -- runtime [s]"))
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    from repro.core.local_search import refine_solution
    from repro.io.serialization import load_solution

    instance = load_instance(args.instance)
    solution = load_solution(args.solution)
    validate_solution(instance, solution)
    refined, report = refine_solution(
        instance, solution, max_rounds=args.rounds
    )
    validate_solution(instance, refined)
    print(
        format_table(
            [
                {
                    "stage": "input",
                    "objective": round(solution.objective, 2),
                },
                {
                    "stage": "refined",
                    "objective": round(refined.objective, 2),
                    "moves": report.moves_accepted,
                    "improvement": f"{report.improvement:.2%}",
                },
            ],
            title=instance.name,
        )
    )
    if args.output:
        save_solution(refined, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.io.geojson import export_scenario
    from repro.io.serialization import load_solution

    instance = load_instance(args.instance)
    solution = None
    if args.solution:
        solution = load_solution(args.solution)
        validate_solution(instance, solution)
    export_scenario(instance, solution, args.output)
    layers = "network, instance" + (", solution" if solution else "")
    print(f"wrote {args.output} ({layers})")
    return 0


def _load_or_generate(args: argparse.Namespace):
    """The instance named by ``args``, or a synthetic one (profile/oracle)."""
    if args.instance is not None:
        return load_instance(args.instance)
    from repro.datagen.instances import clustered_instance, uniform_instance

    factory = uniform_instance if args.kind == "uniform" else clustered_instance
    return factory(args.n, seed=args.seed)


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.obs import tracing
    from repro.obs.profile import check_against_baseline, profile_solver

    instance = _load_or_generate(args)
    oracle = False if args.oracle == "off" else args.oracle
    trace = tracing.Trace()
    report = profile_solver(
        instance, args.method, trace=trace, workers=args.workers,
        oracle=oracle,
    )
    payload = report.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.output}")
    else:
        print(payload)
    if args.spans_out:
        trace.export_jsonl(args.spans_out)
        print(f"wrote {args.spans_out} ({len(trace)} spans)")

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline_doc = json.load(fh)
        baseline = baseline_doc.get("metrics", baseline_doc)
        tolerance = args.tolerance
        if tolerance is None:
            tolerance = float(baseline_doc.get("tolerance", 0.2))
        violations = check_against_baseline(
            report.metrics, baseline, tolerance=tolerance
        )
        if violations:
            for line in violations:
                print(f"BASELINE REGRESSION: {line}", file=sys.stderr)
            return 1
        print(
            f"baseline ok: {len(baseline)} counters within "
            f"{tolerance:.0%} of {args.baseline}"
        )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.network.ch import ContractionHierarchy, cache_path
    from repro.network.oracle import ORACLE_DIR_ENV_VAR

    instance = _load_or_generate(args)
    network = instance.network
    cache_dir = (
        args.cache_dir or os.environ.get(ORACLE_DIR_ENV_VAR) or ".oracle-cache"
    )
    path = cache_path(cache_dir, network)
    hierarchy = ContractionHierarchy.load(path, network)
    if args.oracle_command == "build":
        if hierarchy is not None:
            print(f"up to date: {path}")
            return 0
        hierarchy = ContractionHierarchy.build(network)
        hierarchy.save(path)
        print(
            f"wrote {path} ({hierarchy.n_shortcuts} shortcuts, "
            f"{network.n_nodes} nodes)"
        )
        return 0

    # info: load the blob when present, else describe an in-memory build.
    cached = hierarchy is not None
    if hierarchy is None:
        hierarchy = ContractionHierarchy.build(network)
    doc = hierarchy.info()
    doc["cached"] = cached
    doc["cache_path"] = path
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.output}")
    else:
        print(payload)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.obs import metrics
    from repro.obs.profile import check_against_baseline
    from repro.serve import (
        ServeEngine,
        load_trace,
        save_trace,
        synthesize_trace,
    )

    instance = _load_or_generate(args)
    solution = solve(instance, method=args.method)
    selected = solution.selected

    if args.synthesize is not None:
        mutations = synthesize_trace(
            instance.network,
            args.synthesize,
            facility_nodes=[instance.facility_nodes[j] for j in selected],
            capacities=[int(instance.capacities[j]) for j in selected],
            start_handle=len(instance.customers),
            customer_nodes=[int(c) for c in instance.customers],
            seed=args.trace_seed,
            p_depart=args.p_depart,
            p_capacity=args.p_capacity,
            p_retime=args.p_retime,
        )
        if args.trace:
            save_trace(args.trace, mutations)
            print(f"wrote {args.trace} ({len(mutations)} mutations)")
    elif args.trace:
        mutations = load_trace(args.trace)
    else:
        print("serve: provide --trace PATH or --synthesize N", file=sys.stderr)
        return 2

    registry = metrics.Registry()
    staleness_counts = {"optimal": 0, "feasible": 0, "cached": 0}
    applied = rejected = shed = moves = 0
    deadline_batches = 0
    started = time.perf_counter()
    with metrics.use(registry):
        engine = ServeEngine(
            instance,
            selected,
            max_batch=args.max_batch,
            cache=args.cache or None,
        )
        batch_size = max(1, args.batch)
        n_batches = 0
        for start in range(0, len(mutations), batch_size):
            result = engine.apply(
                mutations[start:start + batch_size], deadline=args.deadline
            )
            n_batches += 1
            staleness_counts[result.staleness] += 1
            applied += result.applied
            rejected += result.rejected
            shed += result.shed
            moves += result.moves
            deadline_batches += int(result.deadline_exceeded)
    elapsed = time.perf_counter() - started

    doc = {
        "method": args.method,
        "n_mutations": len(mutations),
        "batch_size": batch_size,
        "batches": n_batches,
        "applied": applied,
        "rejected": rejected,
        "shed": shed,
        "moves": moves,
        "staleness": staleness_counts,
        "deadline_exceeded_batches": deadline_batches,
        "final_cost": engine.cost,
        "n_active": engine.n_active,
        "elapsed_sec": elapsed,
        "mutations_per_sec": len(mutations) / elapsed if elapsed > 0 else 0.0,
        "metrics": registry.as_dict(),
    }
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.output}")
    else:
        print(payload)
    print(
        f"served {len(mutations)} mutations in {n_batches} batches: "
        f"{applied} applied, {rejected} rejected, {shed} shed; "
        f"{doc['mutations_per_sec']:.0f} mut/s, "
        f"final cost {engine.cost:.2f} ({engine.staleness})"
    )

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline_doc = json.load(fh)
        baseline = baseline_doc.get("metrics", baseline_doc)
        tolerance = args.tolerance
        if tolerance is None:
            tolerance = float(baseline_doc.get("tolerance", 0.2))
        violations = check_against_baseline(
            doc["metrics"], baseline, tolerance=tolerance
        )
        if violations:
            for line in violations:
                print(f"BASELINE REGRESSION: {line}", file=sys.stderr)
            return 1
        print(
            f"baseline ok: {len(baseline)} counters within "
            f"{tolerance:.0%} of {args.baseline}"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lintcli import run_from_args

    return run_from_args(args)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "stats": _cmd_stats,
        "compare": _cmd_compare,
        "bench": _cmd_bench,
        "refine": _cmd_refine,
        "export": _cmd_export,
        "profile": _cmd_profile,
        "oracle": _cmd_oracle,
        "serve": _cmd_serve,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
