"""The repo-specific reprolint rules (REP001..REP004, REP101..REP104).

Each rule encodes a real contract of this codebase that no generic
linter knows about -- the observability name registry, the
``solver_api``/``SOLVERS`` registration protocol, clock and RNG
discipline, budget-checkpoint reachability, the architecture layering,
shared-state safety under process fan-out, and dead-export hygiene.
Rules are pluggable: subclass :class:`Rule`, give it an id/severity/
hint, and add it to :func:`default_rules`.

Per-file state arrives through
:class:`~repro.analysis.engine.FileContext` -- per-function rules read
its function index (``ctx.functions``: each def with its owned nodes)
and whole-file scans read ``ctx.nodes``, never re-walking
``ctx.tree``; cross-file rules accumulate
during :meth:`Rule.visit`, receive the whole-program graphs
(:class:`~repro.analysis.graphs.AnalysisProject`) through
:meth:`Rule.set_project`, and reconcile in :meth:`Rule.finalize`.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from pathlib import Path

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.graphs import (
    AnalysisProject,
    CallGraph,
    FunctionInfo,
    call_name,
    check_layering,
    checkpoint_callers,
    dotted_name,
    module_name,
)

__all__ = ["Rule", "default_rules", "RULES"]


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`id`, :attr:`severity`, :attr:`title`, and
    :attr:`hint`, implement :meth:`visit` (per file), and may implement
    :meth:`finalize` (project-wide, after every file was visited).
    """

    id = "REP000"
    severity = "error"
    title = ""
    hint = ""

    def start(self) -> None:
        """Reset cross-file state; called once per engine run."""

    def set_project(self, project: AnalysisProject) -> None:
        """Receive the whole-program graphs (before :meth:`finalize`)."""
        self.project = project

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one parsed file."""
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        """Yield cross-file findings after the whole tree was visited."""
        return iter(())

    def finding(
        self,
        ctx_or_path: FileContext | str,
        line: int,
        col: int,
        symbol: str,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        """Build a :class:`Finding` for this rule."""
        path = (
            ctx_or_path.rel
            if isinstance(ctx_or_path, FileContext)
            else ctx_or_path
        )
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=path,
            line=line,
            col=col,
            symbol=symbol,
            message=message,
            hint=self.hint if hint is None else hint,
        )


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _str_value(node: ast.expr, ctx: FileContext) -> str | None:
    """Resolve a string literal or module-level string constant."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return ctx.constants.get(node.id)
    return None


# ----------------------------------------------------------------------
# REP001 -- observability names must round-trip through the registry
# ----------------------------------------------------------------------
class ObsNameRegistryRule(Rule):
    """Counter/gauge/timer names must exist in ``obs/names.py`` (both ways).

    A name used at a call site but absent from the registry is a typo
    about to mint an ungated counter; a registered name with no call
    site is dead vocabulary.  Names passed through module-level string
    constants (``COUNTER_QUERIES = "oracle.queries"``) are resolved;
    genuinely dynamic names (variables, f-strings) are outside the
    rule's reach and are ignored.
    """

    id = "REP001"
    severity = "error"
    title = "observability name not in obs/names.py registry"
    hint = (
        "declare the name in the matching set of src/repro/obs/names.py "
        "(COUNTERS/GAUGES/TIMERS) or fix the typo at the call site"
    )

    REGISTRY_REL = "obs/names.py"
    _KIND_BY_SET = {"COUNTERS": "counter", "GAUGES": "gauge", "TIMERS": "timer"}

    def start(self) -> None:
        # kind -> name -> declaration line in the registry file
        self.registry: dict[str, dict[str, int]] = {}
        self.registry_seen = False
        # (kind, name, path, line, col) usages across the tree
        self.usages: list[tuple[str, str, str, int, int]] = []

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel == self.REGISTRY_REL:
            self.registry_seen = True
            self._collect_registry(ctx)
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            called = call_name(node)
            if called in ("counter", "gauge", "timer"):
                if node.args:
                    name = _str_value(node.args[0], ctx)
                    if name is not None:
                        self.usages.append(
                            (called, name, ctx.rel, node.lineno, node.col_offset)
                        )
            elif called == "CounterBlock":
                for arg in node.args:
                    name = _str_value(arg, ctx)
                    if name is not None:
                        self.usages.append(
                            ("counter", name, ctx.rel, node.lineno, node.col_offset)
                        )
        return
        yield  # pragma: no cover - makes this an (empty) generator

    def _collect_registry(self, ctx: FileContext) -> None:
        for node in ctx.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            kind = self._KIND_BY_SET.get(target.id)
            if kind is None:
                continue
            names = self.registry.setdefault(kind, {})
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names[sub.value] = sub.lineno

    def finalize(self) -> Iterator[Finding]:
        all_registered: dict[str, tuple[str, int]] = {}
        for kind, names in self.registry.items():
            for name, line in names.items():
                all_registered[name] = (kind, line)

        used_names = set()
        for kind, name, path, line, col in self.usages:
            used_names.add(name)
            registered = all_registered.get(name)
            if registered is None:
                yield self.finding(
                    path,
                    line,
                    col,
                    name,
                    f"{kind} name {name!r} is not declared in the "
                    f"observability registry ({self.REGISTRY_REL})",
                )
            elif registered[0] != kind:
                yield self.finding(
                    path,
                    line,
                    col,
                    name,
                    f"{name!r} is registered as a {registered[0]} but used "
                    f"as a {kind} here",
                    hint="use the registered instrument kind or move the "
                    "name to the matching registry set",
                )
        if self.registry_seen:
            for name, (kind, line) in sorted(all_registered.items()):
                if name not in used_names:
                    yield self.finding(
                        self.REGISTRY_REL,
                        line,
                        0,
                        name,
                        f"registered {kind} name {name!r} has no call site "
                        f"left in the tree (dead registry entry)",
                        hint="remove the entry or restore the "
                        "instrumentation that used it",
                    )


# ----------------------------------------------------------------------
# REP002 -- solver entry points must use solver_api and be in SOLVERS
# ----------------------------------------------------------------------
class SolverRegistrationRule(Rule):
    """``def solve_*`` in ``baselines/``/``core/`` must be registered.

    Every solver entry point must carry the ``@solver_api`` decorator
    (PR 3's unified option surface -- without it, ``options=`` and the
    budget/cache scopes silently do not apply) and must be reachable as
    a value of the top-level ``SOLVERS`` dict, or the CLI, the fallback
    chains, and the bench harness cannot see it.
    """

    id = "REP002"
    severity = "error"
    title = "unregistered solver entry point"
    hint = (
        "decorate with @solver_api(<method>, ...) and add the function "
        "to SOLVERS in src/repro/__init__.py"
    )

    PREFIXES = ("baselines/", "core/")

    def start(self) -> None:
        self.defs: list[tuple[str, str, int]] = []  # (name, path, line)
        self.solvers_values: set[str] | None = None

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel == "__init__.py":
            self._collect_solvers(ctx)
        if not ctx.rel.startswith(self.PREFIXES):
            return
        for node in ctx.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if not node.name.startswith("solve_"):
                continue
            if not self._has_solver_api(node):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    node.name,
                    f"solver entry point {node.name!r} lacks the "
                    f"@solver_api decorator",
                )
            self.defs.append((node.name, ctx.rel, node.lineno))

    @staticmethod
    def _has_solver_api(node: ast.FunctionDef) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = dotted_name(target)
            if name == "solver_api" or name.endswith(".solver_api"):
                return True
        return False

    def _collect_solvers(self, ctx: FileContext) -> None:
        for node in ctx.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "SOLVERS"
                and isinstance(node.value, ast.Dict)
            ) or (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "SOLVERS"
                and isinstance(node.value, ast.Dict)
            ):
                values = set()
                for value in node.value.values:
                    name = dotted_name(value)
                    if name:
                        values.add(name.rsplit(".", 1)[-1])
                self.solvers_values = values

    def finalize(self) -> Iterator[Finding]:
        if self.solvers_values is None:
            return
        for name, path, line in self.defs:
            if name not in self.solvers_values:
                yield self.finding(
                    path,
                    line,
                    0,
                    name,
                    f"solver entry point {name!r} is not reachable from "
                    f"the SOLVERS registry in __init__.py",
                )


# ----------------------------------------------------------------------
# REP003 -- wall clocks belong to runtime/ and obs/
# ----------------------------------------------------------------------
class WallClockOwnershipRule(Rule):
    """No ``time.time``/``time.monotonic``/argless ``datetime.now`` elsewhere.

    Determinism and budget ownership: solvers must observe wall time
    only through the cooperative budget (:mod:`repro.runtime.budget`)
    and the observability layer, or identical runs stop being identical
    and deadline enforcement fragments.  ``time.perf_counter`` for pure
    duration measurement is allowed.
    """

    id = "REP003"
    severity = "error"
    title = "wall-clock read outside runtime/ and obs/"
    hint = (
        "route deadlines through repro.runtime.budget and measurements "
        "through repro.obs; time.perf_counter() is fine for durations"
    )

    EXEMPT_PREFIXES = ("runtime/", "obs/", "analysis/")
    _BANNED_CALLS = {"time.time", "time.monotonic"}

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel.startswith(self.EXEMPT_PREFIXES):
            return
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                banned = [
                    a.name
                    for a in node.names
                    if a.name in ("time", "monotonic")
                ]
                if banned:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"from-time-import-{'-'.join(banned)}",
                        f"importing {', '.join(banned)} from time makes "
                        f"wall-clock reads invisible to the budget layer",
                    )
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted in self._BANNED_CALLS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    dotted,
                    f"{dotted}() outside runtime/ and obs/ breaks "
                    f"determinism and budget ownership",
                )
            elif (
                dotted.endswith("datetime.now")
                or dotted == "datetime.now"
            ) and not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "datetime.now",
                    "argless datetime.now() outside runtime/ and obs/ is "
                    "a non-deterministic wall-clock read",
                )


# ----------------------------------------------------------------------
# REP004 -- randomness must be seed-driven
# ----------------------------------------------------------------------
class SeededRandomnessRule(Rule):
    """No ``import random``, no unseeded ``default_rng()``.

    Reproducibility is a headline contract of this repo: every random
    draw flows from an explicit seed.  The stdlib ``random`` module
    (global, shared state) is allowed only in the whitelisted
    seed-driven site (``runtime/faults.py``, whose FaultPlan derives a
    private ``random.Random(seed)``); ``numpy.random.default_rng()``
    must always be given a seed.
    """

    id = "REP004"
    severity = "error"
    title = "unseeded randomness"
    hint = (
        "thread an explicit seed: np.random.default_rng(seed); the "
        "stdlib random module is whitelisted only in runtime/faults.py"
    )

    WHITELIST = {"runtime/faults.py"}

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel in self.WHITELIST:
            return
        for node in ctx.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            "import-random",
                            "the stdlib random module (global shared state) "
                            "is only allowed in runtime/faults.py",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "import-random",
                    "the stdlib random module (global shared state) is "
                    "only allowed in runtime/faults.py",
                )
            elif isinstance(node, ast.Call):
                if (
                    call_name(node) == "default_rng"
                    and not node.args
                    and not node.keywords
                ):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        "default_rng",
                        "default_rng() without a seed is OS-entropy seeded "
                        "and breaks run-to-run reproducibility",
                    )


# ----------------------------------------------------------------------
# REP101 -- hot loops must *reach* a budget checkpoint (interprocedural)
# ----------------------------------------------------------------------
class BudgetReachabilityRule(Rule):
    """Instance-sized loops in hot-path modules must reach ``checkpoint()``.

    The deadline runtime (PR 3) is cooperative: a hot loop that never
    reaches :func:`repro.runtime.budget.checkpoint` cannot be
    interrupted, so one such loop defeats every ``--deadline`` above it.
    The rule flags functions in the hot-path modules (``network/``,
    ``flow/``, ``serve/``, ``core/wma.py``) that run data-dependent loops
    (``while``, or ``for`` over anything but a literal/constant-range
    iterable) with no checkpoint on any path.  A function is compliant
    if

    * it (or an enclosing def) calls ``*checkpoint*`` lexically --
      the legacy REP005 scope check; or
    * any call in its body resolves, via the whole-program call graph,
      to a function that transitively reaches a checkpoint
      (``ws.run()`` checkpoints, so ``many_source_lengths`` and
      ``distance_matrix`` are clean without a local call).

    That reachability check is what retired lexical REP005's
    caller-checkpointed false positives and promoted the rule from
    warning to **error**.  Construction-time loops that genuinely run
    before any budget exists still need an explicit
    ``# reprolint: disable=REP101`` with a rationale comment.
    """

    id = "REP101"
    severity = "error"
    title = "hot loop cannot reach a budget checkpoint"
    hint = (
        "call repro.runtime.budget.checkpoint() in the loop (cheap no-op "
        "without an active budget) or call through a checkpointing "
        "kernel; suppress with '# reprolint: disable=REP101' only for "
        "construction-time loops"
    )

    HOT_PREFIXES = ("network/", "flow/", "serve/")
    HOT_FILES = {"core/wma.py"}
    _BOUNDED_CALLS = {"range", "enumerate", "zip", "reversed"}

    def start(self) -> None:
        # (rel, module.qual node id, qual, def line, def col, loop line)
        self._candidates: list[tuple[str, str, str, int, int, int]] = []

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if not (
            ctx.rel.startswith(self.HOT_PREFIXES) or ctx.rel in self.HOT_FILES
        ):
            return iter(())
        module = module_name(ctx.rel)
        # A function is compliant when it or a def nested in it calls a
        # checkpoint, or an enclosing def calls one in its own body.
        own, anywhere = checkpoint_callers(ctx.functions)
        for site in ctx.functions:
            if site.node in anywhere or own.intersection(site.chain):
                continue
            loop = self._first_hot_loop(site.owned)
            if loop is not None:
                qual = site.qualname
                node_id = f"{module}.{qual}" if module else qual
                self._candidates.append(
                    (
                        ctx.rel,
                        node_id,
                        qual,
                        site.node.lineno,
                        site.node.col_offset,
                        loop.lineno,
                    )
                )
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        calls = self.project.calls
        reaching = calls.checkpoint_reaching()
        out = calls.out_edges()
        for rel, node_id, qual, line, col, loop_line in self._candidates:
            if any(callee in reaching for callee in out.get(node_id, ())):
                continue
            yield self.finding(
                rel,
                line,
                col,
                qual,
                f"{qual}() runs an instance-sized loop (line {loop_line}) "
                f"and no call path from the function reaches a budget "
                f"checkpoint",
            )

    @classmethod
    def _first_hot_loop(
        cls, owned: list[ast.AST]
    ) -> ast.While | ast.For | None:
        for node in owned:
            if isinstance(node, ast.While):
                return node
            if isinstance(node, ast.For) and cls._data_dependent(node.iter):
                return node
        return None

    @classmethod
    def _data_dependent(cls, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            return any(
                not isinstance(e, ast.Constant) and cls._data_dependent(e)
                for e in expr.elts
            )
        if isinstance(expr, ast.Constant):
            return False
        if isinstance(expr, ast.Call):
            if call_name(expr) in cls._BOUNDED_CALLS:
                return any(cls._data_dependent(a) for a in expr.args)
            return True
        return True


# ----------------------------------------------------------------------
# REP102 -- the declared architecture layering holds
# ----------------------------------------------------------------------
class LayeringRule(Rule):
    """Eager imports must respect the declared layer DAG.

    The contract (rank table in :mod:`repro.analysis.graphs.layering`)
    is the roadmap's ``errors/obs -> network -> flow -> {baselines,
    core} -> runtime -> bench/cli`` DAG at module granularity: an eager
    (module-top-level) import may only reach *down* the stack.  Lazy
    imports (function-local, ``TYPE_CHECKING``, PEP 562 ``__getattr__``)
    are exempt -- they are the sanctioned way to reach up.  The rule
    also flags eager import *cycles*, and holds ``analysis/`` to its
    stdlib-only contract so the linter runs on a tree that cannot even
    import.  Violations name the offending import chain.
    """

    id = "REP102"
    severity = "error"
    title = "architecture layering violation"
    hint = (
        "import lazily (inside the function that needs it, or under "
        "TYPE_CHECKING) or move the dependency into a lower layer; the "
        "rank table lives in repro/analysis/graphs/layering.py"
    )

    def finalize(self) -> Iterator[Finding]:
        graph = self.project.imports
        for violation in check_layering(graph):
            rel = self.project.rel_of_module(violation.module)
            if not rel:
                continue
            yield self.finding(
                rel,
                violation.line,
                0,
                "->".join(violation.chain),
                violation.message,
            )


# ----------------------------------------------------------------------
# REP103 -- no shared-state mutation on parallel read paths
# ----------------------------------------------------------------------
class SharedStateSafetyRule(Rule):
    """Worker read paths must not mutate ``Network`` state.

    The process-parallel distance engine (PR 2) forks workers that
    share a ``Network`` via copy-on-write and shared-memory CSR blocks
    -- a read path that mutates the network (even a memo write)
    corrupts results silently or defeats fork-time page sharing.  The
    rule statically discovers worker entry points (functions passed as
    ``initializer=`` or ``target=`` keywords, or as the first argument
    of a ``.map``/``.imap``/``.starmap``-style method call), walks
    everything reachable in the call graph (including property
    getters), and reports every *direct* mutation effect whose root is
    typed ``Network``.

    Suppressions for this rule **require a justification**::

        # reprolint: disable=REP103 -- memo is materialized pre-fork

    A bare ``disable=REP103`` is deliberately ignored by the engine.
    """

    id = "REP103"
    severity = "error"
    title = "shared-state mutation on a parallel read path"
    hint = (
        "make the write happen before the pool forks (see "
        "Network.materialize_caches) or move it off the read path; "
        "suppress only with a justification: "
        "'# reprolint: disable=REP103 -- <reason>'"
    )

    #: Class names whose instances are shared across workers.
    PROTECTED_TYPES = ("Network",)
    #: Method names whose first positional argument is a worker function.
    _MAP_METHODS = frozenset(
        {"map", "imap", "imap_unordered", "map_async", "starmap"}
    )
    #: Keyword arguments that carry a worker entry point.
    _ENTRY_KWARGS = frozenset({"initializer", "target"})
    #: Constructor-style methods: their ``self`` is the object being
    #: built, which no other process can see yet.
    _FRESH_OBJECT_METHODS = frozenset(
        {"__init__", "__new__", "__post_init__", "__setstate__"}
    )

    def start(self) -> None:
        # (module, function name referenced at a fan-out site)
        self._entry_refs: list[tuple[str, str]] = []

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        module = module_name(ctx.rel)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg in self._ENTRY_KWARGS and isinstance(
                    keyword.value, ast.Name
                ):
                    self._entry_refs.append((module, keyword.value.id))
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MAP_METHODS
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                self._entry_refs.append((module, node.args[0].id))
        return iter(())

    def _entry_nodes(self) -> list[str]:
        calls = self.project.calls
        entries: set[str] = set()
        for module, name in self._entry_refs:
            node_id = calls.lookup_function(module, name)
            if node_id is not None:
                entries.add(node_id)
        return sorted(entries)

    def finalize(self) -> Iterator[Finding]:
        calls = self.project.calls
        effects = self.project.effects
        entries = self._entry_nodes()
        if not entries:
            return
        reachable = calls.reachable_from(entries)
        reported: set[tuple[str, int, str]] = set()
        for node_id in sorted(reachable):
            info = calls.functions.get(node_id)
            if info is None:
                continue
            fresh_self = (
                info.qualname.rsplit(".", 1)[-1] in self._FRESH_OBJECT_METHODS
            )
            for effect in effects.mutations(node_id):
                if fresh_self and effect.root == "self":
                    continue
                if not self._protected_root(info, effect.root):
                    continue
                rel = self.project.rel_of_module(info.module)
                key = (rel, effect.line, effect.detail)
                if not rel or key in reported:
                    continue
                reported.add(key)
                entry = self._nearest_entry(calls, entries, node_id)
                chain = calls.path_between(entry, node_id)
                yield self.finding(
                    rel,
                    effect.line,
                    0,
                    info.qualname,
                    f"{info.qualname}() mutates shared Network state "
                    f"({effect.kind} on {effect.root}"
                    f"{'.' + effect.detail if effect.detail else ''}) but "
                    f"is reachable from the parallel read path "
                    f"{' -> '.join(chain) if chain else entry}",
                )

    def _protected_root(self, info: FunctionInfo, root: str) -> bool:
        if root == "self":
            simple = info.class_key.rsplit(".", 1)[-1]
            return simple in self.PROTECTED_TYPES
        if root.startswith("param:"):
            key = info.param_types.get(root[len("param:"):], "")
            return key.rsplit(".", 1)[-1] in self.PROTECTED_TYPES
        return False

    @staticmethod
    def _nearest_entry(
        calls: CallGraph, entries: list[str], node_id: str
    ) -> str:
        best = entries[0]
        best_len = 0
        for entry in entries:
            path = calls.path_between(entry, node_id)
            if path and (best_len == 0 or len(path) < best_len):
                best, best_len = entry, len(path)
        return best


# ----------------------------------------------------------------------
# REP104 -- no dead public exports
# ----------------------------------------------------------------------
class DeadExportRule(Rule):
    """Module-level public defs must be referenced from somewhere.

    A public function or class that no code, test, example, benchmark,
    ``__all__`` list, or registry string mentions is dead API surface:
    it rots unreviewed and widens the maintenance contract for nothing.
    The rule scans every identifier occurrence (names, attributes,
    string constants, import aliases) across the linted tree *and* the
    repo's usage roots (``tests/``, ``examples/``, ``benchmarks/``,
    located via the nearest ``pyproject.toml``), and flags module-level
    public ``def``/``class`` symbols whose name appears nowhere outside
    their definition.  Modules that nobody imports are exempt (they are
    roots of their own, e.g. scripts), as are dunder names and
    ``main``-style CLI entry points referenced from packaging metadata.
    """

    id = "REP104"
    severity = "error"
    title = "dead public export"
    hint = (
        "delete the symbol, make it private (_name), or wire it into "
        "the API surface (__all__, SOLVERS, CLI, tests)"
    )

    #: Names referenced from outside Python source (pyproject entry
    #: points, docs); never flagged.
    EXEMPT_NAMES = frozenset({"main"})
    _USAGE_DIRS = ("tests", "examples", "benchmarks")
    _WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

    def start(self) -> None:
        # (module, rel, name, line, col)
        self._defs: list[tuple[str, str, str, int, int]] = []
        self._used: set[str] = set()
        self._root: Path | None = None

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if self._root is None:
            depth = ctx.rel.count("/")
            self._root = ctx.path.parents[depth]
        module = module_name(ctx.rel)
        for node in ctx.tree.body:
            self._collect_defs(module, ctx.rel, node)
        for node in ctx.nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self._used.add(node.id)
            elif isinstance(node, ast.Attribute):
                self._used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                if self._WORD_RE.fullmatch(node.value):
                    self._used.add(node.value)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    self._used.add(alias.name.split(".")[-1])
                    if alias.asname:
                        self._used.add(alias.asname)
        return iter(())

    def _collect_defs(self, module: str, rel: str, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
            if not name.startswith("_") and name not in self.EXEMPT_NAMES:
                self._defs.append(
                    (module, rel, name, node.lineno, node.col_offset)
                )
        elif isinstance(node, (ast.If, ast.Try)):
            sub: list[ast.stmt] = list(node.body)
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    sub.extend(handler.body)
                sub.extend(node.finalbody)
            sub.extend(node.orelse)
            for child in sub:
                self._collect_defs(module, rel, child)

    def _external_usage(self) -> set[str]:
        used: set[str] = set()
        if self._root is None:
            return used
        repo = None
        probe = self._root
        for _ in range(4):
            if (probe / "pyproject.toml").is_file():
                repo = probe
                break
            if probe.parent == probe:
                break
            probe = probe.parent
        if repo is None:
            return used
        for dirname in self._USAGE_DIRS:
            base = repo / dirname
            if not base.is_dir():
                continue
            for path in base.rglob("*.py"):
                try:
                    text = path.read_text(encoding="utf-8")
                except (OSError, UnicodeDecodeError):
                    continue
                used.update(self._WORD_RE.findall(text))
        return used

    def finalize(self) -> Iterator[Finding]:
        imports = self.project.imports
        imported_modules = {
            edge.dst for edge in imports.internal_edges()
        }
        used = self._used | self._external_usage()
        for module, rel, name, line, col in sorted(self._defs):
            if module and module not in imported_modules:
                continue  # nobody imports the module; it is its own root
            if name in used:
                continue
            yield self.finding(
                rel,
                line,
                col,
                name,
                f"public symbol {name!r} is referenced nowhere -- not in "
                f"the tree, __all__, registries, tests, examples, or "
                f"benchmarks",
            )


#: Rule registry in id order; ``repro lint --list-rules`` prints this.
#: The path-sensitive tier (REP105..REP108) and the loop-cost rules
#: (REP110, REP111) register themselves through :func:`default_rules` --
#: their modules subclass :class:`Rule`, so importing them here eagerly
#: would be a cycle.
RULES: tuple[type[Rule], ...] = (
    ObsNameRegistryRule,
    SolverRegistrationRule,
    WallClockOwnershipRule,
    SeededRandomnessRule,
    BudgetReachabilityRule,
    LayeringRule,
    SharedStateSafetyRule,
    DeadExportRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in id order."""
    from repro.analysis.pathrules import PATH_RULES
    from repro.analysis.perfrules import PERF_RULES

    return [cls() for cls in (*RULES, *PATH_RULES, *PERF_RULES)]
