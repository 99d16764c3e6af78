"""The reprolint engine: tree walking, suppressions, rule dispatch.

The engine parses every ``*.py`` file under one root with :mod:`ast`,
indexes its functions once (:mod:`repro.analysis.graphs.functions`),
hands each file to every rule (:class:`~repro.analysis.rules.Rule`), and
runs a project-wide ``finalize`` pass for cross-file rules (REP001's
registry reconciliation, REP002's ``SOLVERS`` reachability).  Findings
then flow through per-file/per-line suppressions and the committed
ratchet baseline (:mod:`repro.analysis.baseline`).

Suppression syntax (checked by ``tests/test_reprolint.py``):

* a standalone comment line ``# reprolint: disable=REP101`` disables the
  named rule(s) for the whole file (comma-separate ids; ``all`` disables
  everything);
* the same comment trailing a code line disables the rule(s) for
  findings reported on exactly that line;
* a trailing ``-- <reason>`` attaches a justification:
  ``# reprolint: disable=REP103 -- memo write, materialized pre-fork``.
  Rules in :data:`JUSTIFIED_RULES` *require* one -- an unjustified
  directive for them is ignored and the finding still fires;
* only comments count: the same text inside a string is not a directive.

Cross-file rules that need the whole-program graphs
(:mod:`repro.analysis.graphs`) receive an :class:`AnalysisProject`
through an optional ``set_project`` hook, called after every file has
parsed and before ``finalize``.
"""

from __future__ import annotations

import ast
import re
import tokenize
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.analysis.baseline import apply_baseline, load_baseline
from repro.analysis.findings import Finding, LintResult
from repro.analysis.graphs import AnalysisProject, index_functions, owned_nodes

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+?)(?:--\s*(\S.*))?$"
)

#: Rules whose suppression directives must carry a ``-- <reason>``
#: justification; without one the directive is ignored.  The
#: path-sensitive tier (REP105..REP108) guards serving-stack invariants
#: where a silent opt-out is itself a bug, so it is justification-only
#: like REP103; the loop-cost rules (REP110, REP111) guard hot-path
#: asymptotics, where an unexplained opt-out is a future regression.
JUSTIFIED_RULES = frozenset(
    {"REP103", "REP105", "REP106", "REP107", "REP108", "REP110", "REP111"}
)

#: Directories never linted (caches, VCS internals).
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


class FileContext:
    """Everything a rule may inspect about one parsed source file."""

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        #: POSIX path relative to the linted root (baseline-stable).
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=rel)
        #: Every def in the file with its owned nodes, walked once here
        #: and read by every rule and graph builder.
        self.functions = index_functions(self.tree)
        #: Every node of the file but the module, each once: the nodes
        #: no def owns, then each def's owned nodes.
        self.nodes = owned_nodes(self.tree)
        for site in self.functions:
            self.nodes.extend(site.owned)
        #: Rule ids disabled for the whole file (may contain ``"all"``).
        self.file_disabled: set[str] = set()
        #: Rule ids disabled per 1-based line number.
        self.line_disabled: dict[int, set[str]] = {}
        #: Subset of the above whose directive carried a justification.
        self.file_justified: set[str] = set()
        self.line_justified: dict[int, set[str]] = {}
        self._scan_suppressions()
        #: Module-level ``NAME = "literal"`` string constants, used to
        #: resolve counter names passed via constants (REP001).
        self.constants = _module_str_constants(self.tree)

    def _scan_suppressions(self) -> None:
        # Directives live in comment tokens only: the same text inside a
        # string (a docstring showing the syntax) suppresses nothing.
        if "reprolint:" not in self.source:
            return
        lines = iter(self.source.splitlines(keepends=True))
        for token in tokenize.generate_tokens(lambda: next(lines, "")):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            rules = {
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            }
            justified = bool(match.group(2))
            lineno, col = token.start
            if not self.lines[lineno - 1][:col].strip():
                # Alone on its line: the directive covers the file.
                self.file_disabled |= rules
                if justified:
                    self.file_justified |= rules
            else:
                self.line_disabled.setdefault(lineno, set()).update(rules)
                if justified:
                    self.line_justified.setdefault(lineno, set()).update(rules)

    def is_suppressed(
        self, rule: str, line: int, require_justification: bool = False
    ) -> bool:
        """Whether ``rule`` is disabled for a finding on ``line``.

        With ``require_justification`` (rules in
        :data:`JUSTIFIED_RULES`), only directives that carried a
        ``-- <reason>`` count; a bare directive is ignored so the
        finding still fires.
        """
        disabled = (
            self.file_justified if require_justification else self.file_disabled
        )
        if "all" in disabled or rule in disabled:
            return True
        at_line = (
            self.line_justified if require_justification else self.line_disabled
        ).get(line, ())
        return "all" in at_line or rule in at_line


def _module_str_constants(tree: ast.Module) -> dict[str, str]:
    constants: dict[str, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            constants[node.targets[0].id] = node.value.value
    return constants


class LintEngine:
    """Run a set of rules over every Python file under ``root``.

    Parameters
    ----------
    root:
        Directory treated as the package root; finding paths and the
        module-layout conventions the rules use (``obs/names.py``,
        ``baselines/``, ...) are relative to it.
    rules:
        Rule instances to run; defaults to the full registered set
        (:func:`repro.analysis.rules.default_rules`).
    """

    def __init__(
        self,
        root: str | Path,
        rules: Sequence[object] | None = None,
    ) -> None:
        self.root = Path(root)
        if rules is None:
            # Local import: rules import the Finding model from this
            # package, so the registry is resolved lazily.
            from repro.analysis.rules import default_rules

            rules = default_rules()
        self.rules = list(rules)

    def _iter_files(self) -> Iterable[Path]:
        for path in sorted(self.root.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in path.parts):
                continue
            yield path

    def _parse(self) -> tuple[list[FileContext], list[Finding]]:
        """Read and parse every file once.

        Returns the parsed files and a REP000 finding for each file that
        could not be read or parsed.
        """
        contexts: list[FileContext] = []
        errors: list[Finding] = []
        for path in self._iter_files():
            rel = path.relative_to(self.root).as_posix()
            try:
                source = path.read_text(encoding="utf-8")
                contexts.append(FileContext(path, rel, source))
            except (OSError, UnicodeDecodeError, SyntaxError) as exc:
                errors.append(_parse_error(rel, exc))
        return contexts, errors

    def parse_project(self) -> AnalysisProject:
        """Parse every file and return the whole-program graph bundle.

        Used by ``repro lint --graph`` to export the import/call graphs
        without running any rules; unparseable files are skipped (the
        lint path reports them as REP000).
        """
        contexts, _errors = self._parse()
        return AnalysisProject(contexts, package=self.root.name)

    def run(
        self, baseline: dict[str, int] | str | Path | None = None
    ) -> LintResult:
        """Lint the tree and return a :class:`LintResult`.

        ``baseline`` may be a pre-loaded mapping, a path to a baseline
        file, or ``None`` (gate at zero).
        """
        if isinstance(baseline, (str, Path)):
            baseline = load_baseline(baseline)
        baseline = dict(baseline or {})

        # Phase 1: parse every file (cross-file rules need the whole
        # tree before any finalize runs).
        contexts, findings = self._parse()
        for rule in self.rules:
            rule.start()
        suppressed = 0

        def _keep(ctx: FileContext | None, finding: Finding) -> bool:
            nonlocal suppressed
            if ctx is not None and ctx.is_suppressed(
                finding.rule,
                finding.line,
                require_justification=finding.rule in JUSTIFIED_RULES,
            ):
                suppressed += 1
                return False
            return True

        # Phase 2: per-file visits.
        for ctx in contexts:
            for rule in self.rules:
                findings.extend(f for f in rule.visit(ctx) if _keep(ctx, f))

        # Phase 3: hand the whole-program graphs to rules that want
        # them, then finalize.
        project = AnalysisProject(contexts, package=self.root.name)
        for rule in self.rules:
            set_project = getattr(rule, "set_project", None)
            if set_project is not None:
                set_project(project)
        by_rel = {ctx.rel: ctx for ctx in contexts}
        for rule in self.rules:
            findings.extend(
                f
                for f in rule.finalize()
                if _keep(by_rel.get(f.path), f)
            )

        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        stale = apply_baseline(findings, baseline)
        return LintResult(
            root=str(self.root),
            files_scanned=len(contexts),
            findings=findings,
            suppressed=suppressed,
            stale_baseline=stale,
        )


def _parse_error(rel: str, exc: Exception) -> Finding:
    """The REP000 finding for a file that could not be read or parsed."""
    return Finding(
        rule="REP000",
        severity="error",
        path=rel,
        line=getattr(exc, "lineno", 1) or 1,
        col=0,
        symbol="parse",
        message=f"file could not be parsed: {exc}",
        hint="reprolint needs every file to parse",
    )


def default_root() -> Path:
    """The installed :mod:`repro` package directory (the default target)."""
    import repro

    return Path(repro.__file__).resolve().parent
