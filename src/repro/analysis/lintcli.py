"""Command-line front end for reprolint.

Reachable two ways with identical semantics::

    repro lint [root] [--format text|json] [--baseline FILE] ...
    python -m repro.analysis [same flags]

Exit codes: ``0`` clean (only baselined/suppressed findings), ``1`` at
least one new finding (or stale baseline entries under ``--strict``),
``2`` usage errors.  JSON mode writes the full report (schema pinned by
``tests/test_reprolint.py``) to stdout or ``--output``, which the CI
``static-analysis`` job uploads as an artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.baseline import load_baseline, save_baseline
from repro.analysis.costmodel import (
    DEFAULT_CEILING,
    CostModel,
    find_budgets_file,
    load_budgets,
)
from repro.analysis.engine import LintEngine, default_root
from repro.analysis.reports import GRAPH_FORMATS, GRAPH_KINDS, render_graph


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``lint`` flags to ``parser``."""
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        help="directory to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json emits the machine-readable schema)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="ratchet baseline JSON (default: reprolint-baseline.json "
        "beside the source tree when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline and gate at zero findings",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to exactly the current findings "
        "(the only sanctioned way to change it)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the report to this file instead of stdout",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail (exit 1) on stale baseline entries",
    )
    parser.add_argument(
        "--graph",
        choices=GRAPH_KINDS,
        default=None,
        help="export a whole-program graph instead of linting "
        "(imports: module import graph with layer ranks; calls: "
        "interprocedural call graph)",
    )
    parser.add_argument(
        "--graph-format",
        choices=GRAPH_FORMATS,
        default="json",
        help="graph export format (json or GraphViz dot)",
    )
    parser.add_argument(
        "--ratchet-check",
        metavar="OLD_BASELINE",
        default=None,
        help="compare the current baseline against an older copy (e.g. "
        "the merge base's) and fail if any key appeared or grew -- the "
        "baseline may only shrink",
    )
    parser.add_argument(
        "--cost",
        action="store_true",
        help="export the hot-path cost tree instead of linting "
        "(interprocedural loop-cost summaries; format follows "
        "--graph-format)",
    )
    parser.add_argument(
        "--cost-ratchet",
        metavar="OLD_BUDGETS",
        default=None,
        help="compare cost-budgets.toml against an older copy (e.g. the "
        "merge base's) and fail if any ceiling appeared or grew -- "
        "budget growth must ride a PR that visibly changes the file",
    )


def _default_baseline_path(root: Path) -> Path | None:
    """Locate ``reprolint-baseline.json`` near ``root`` (repo layouts).

    Walks up a few levels from the linted root so both a repo checkout
    (``src/repro`` -> repo root) and an explicit root argument find the
    committed file without configuration.
    """
    for candidate_dir in (root, *root.parents[:3]):
        candidate = candidate_dir / "reprolint-baseline.json"
        if candidate.exists():
            return candidate
    return None


def ratchet_check(
    old_path: str | Path, new_path: str | Path
) -> list[str]:
    """Keys where ``new_path``'s baseline grew relative to ``old_path``.

    The ratchet contract: a baseline entry may disappear or shrink, never
    appear or grow.  Returns human-readable violation lines (empty when
    the ratchet holds).  A missing *new* file counts as an empty baseline
    (fully shrunk); a missing *old* file means everything new is growth.
    """
    old = load_baseline(old_path) if Path(old_path).exists() else {}
    new = load_baseline(new_path) if Path(new_path).exists() else {}
    violations: list[str] = []
    for key in sorted(new):
        before = old.get(key, 0)
        if new[key] > before:
            violations.append(
                f"{key}: {before} -> {new[key]}"
                + ("" if before else " (new baseline entry)")
            )
    return violations


def budget_ratchet_check(
    old_path: str | Path, new_path: str | Path | None
) -> list[str]:
    """Ceilings that appeared or grew between two budget files.

    Mirrors the baseline ratchet: a cost ceiling may disappear or
    shrink silently, but growth must ride a PR that changes
    ``cost-budgets.toml`` -- CI runs this check only when the file did
    *not* change, so any growth it sees slipped in unreviewed.
    """
    old = load_budgets(old_path)
    new = load_budgets(new_path) if new_path is not None else {}
    violations: list[str] = []
    for module in sorted(new):
        before = old.get(module, DEFAULT_CEILING)
        if new[module] > before:
            violations.append(
                f"{module}: depth {before} -> {new[module]}"
                + ("" if module in old else " (new budget entry)")
            )
    return violations


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments."""
    from repro.analysis.rules import default_rules

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  [{rule.severity}]  {rule.title}")
        return 0

    root = Path(args.root) if args.root else default_root()
    if not root.is_dir():
        print(f"reprolint: not a directory: {root}", file=sys.stderr)
        return 2

    if args.graph:
        project = LintEngine(root, rules=[]).parse_project()
        report = render_graph(project, args.graph, args.graph_format)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report + "\n")
            print(f"reprolint: wrote {args.output}")
        else:
            print(report)
        return 0

    if args.cost:
        project = LintEngine(root, rules=[]).parse_project()
        model = CostModel(project)
        budgets_file = find_budgets_file(root)
        budgets = load_budgets(budgets_file) if budgets_file else {}
        if args.graph_format == "dot":
            report = model.to_dot(budgets)
        else:
            report = json.dumps(
                model.as_dict(budgets), indent=2, sort_keys=True
            )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report + "\n")
            print(f"reprolint: wrote {args.output}")
        else:
            print(report)
        return 0

    if args.cost_ratchet:
        current_budgets = find_budgets_file(root)
        violations = budget_ratchet_check(args.cost_ratchet, current_budgets)
        if violations:
            print(
                "reprolint cost ratchet: budget ceilings grew without a "
                "visible cost-budgets.toml change:",
                file=sys.stderr,
            )
            for line in violations:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("reprolint cost ratchet: no ceiling grew (ok)")
        return 0

    if args.ratchet_check:
        current = (
            Path(args.baseline)
            if args.baseline
            else _default_baseline_path(root)
        )
        if current is None:
            # No baseline file at all -- trivially fully shrunk.
            print("reprolint ratchet: no current baseline (ok)")
            return 0
        violations = ratchet_check(args.ratchet_check, current)
        if violations:
            print(
                "reprolint ratchet: baseline grew (it may only shrink):",
                file=sys.stderr,
            )
            for line in violations:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("reprolint ratchet: baseline did not grow (ok)")
        return 0

    rules = default_rules()
    if args.rules:
        wanted = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
        known = {r.id for r in rules}
        unknown = sorted(wanted - known)
        if unknown:
            print(
                f"reprolint: unknown rule id(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 2
        rules = [r for r in rules if r.id in wanted]

    baseline_path: Path | None
    if args.no_baseline:
        baseline_path = None
    elif args.baseline:
        baseline_path = Path(args.baseline)
    else:
        baseline_path = _default_baseline_path(root)

    result = LintEngine(root, rules=rules).run(
        baseline=load_baseline(baseline_path) if baseline_path else None
    )

    if args.update_baseline:
        target = baseline_path or (root / "reprolint-baseline.json")
        entries = save_baseline(target, result.findings)
        print(
            f"reprolint: wrote {target} ({sum(entries.values())} "
            f"grandfathered finding(s) across {len(entries)} key(s))"
        )
        return 0

    report = (
        result.to_json() if args.format == "json" else result.format_text()
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"reprolint: wrote {args.output}")
    else:
        print(report)

    if not result.ok:
        return 1
    if args.strict and result.stale_baseline:
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.analysis``."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="repo-specific static analysis (reprolint)",
    )
    add_lint_arguments(parser)
    try:
        return run_from_args(parser.parse_args(argv))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (e.g. ``--graph ... | head``).
        # Detach stdout so the interpreter's shutdown flush does not raise too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
