"""Performance (cost-model) reprolint rules (REP109..REP112).

The fourth analysis tier: :mod:`repro.analysis.costmodel` classifies
every loop against a two-valued size lattice (bounded < instance) and
propagates per-function nesting-depth summaries through the call graph;
these rules turn the summaries into findings.

All four are **error** severity and justification-only
(:data:`repro.analysis.engine.JUSTIFIED_RULES`): an accidentally
quadratic loop on a hot path is a silent regression the test suite will
not catch at test-sized instances, so opting out must leave a reviewed
reason behind.

- **REP109** -- hot-path complexity budget: functions reachable from the
  solver registry / ``ServeEngine.apply`` / oracle query entry points
  must not exceed their module's declared cost ceiling
  (``cost-budgets.toml``; default depth 2).
- **REP110** -- loop-invariant allocation: container construction,
  comprehension, or str-concat inside an instance-sized loop whose
  operands never change across iterations must be hoisted.
- **REP111** -- repeated linear membership: ``x in <list/tuple>`` inside
  an instance-sized loop demands a set/dict.
- **REP112** -- hidden-rescan calls: calling a function whose own
  summary is instance-sized from inside an instance-sized loop is how
  quadratic blowups actually ship; each such hot-path site needs an
  explicit justification.

REP110/REP111 are per-file and share one loop classification per
function (:func:`~repro.analysis.costmodel.local_loops`); REP109/REP112
are whole-program and read the interprocedural summaries.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from repro.analysis.costmodel import (
    DEFAULT_CEILING,
    CostModel,
    find_budgets_file,
    load_budgets,
    local_loops,
)
from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.graphs import AnalysisProject, FuncDef, call_name
from repro.analysis.rules import BudgetReachabilityRule, Rule

__all__ = [
    "PERF_RULES",
    "HiddenRescanRule",
    "HotPathBudgetRule",
    "LinearMembershipRule",
    "LoopInvariantAllocRule",
    "cost_model_for",
]


def cost_model_for(project: AnalysisProject) -> CostModel:
    """The (memoised) cost model of one analysis project.

    Several rules consult the same summaries; the model is built once
    per project and stashed on it, like the project's own lazily built
    graphs (``project.calls``).
    """
    model = getattr(project, "_cost_model", None)
    if not isinstance(model, CostModel) or model.project is not project:
        model = CostModel(project)
        project._cost_model = model  # type: ignore[attr-defined]
    return model


def _assigned_names(loop: ast.For | ast.While) -> set[str]:
    """Names (re)bound anywhere inside ``loop`` -- the LICM kill set.

    This is the binding criterion of the reaching-definitions solver
    specialised to a natural loop: an operand is loop-invariant iff no
    definition of it lies on the back edge, i.e. no statement in the
    loop body assigns it.
    """
    assigned: set[str] = set()

    def bind(target: ast.expr) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                assigned.add(node.id)

    for node in ast.walk(loop):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                bind(target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bind(item.optional_vars)
        elif isinstance(node, ast.NamedExpr):
            bind(node.target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            assigned.add(node.name)
    return assigned


def _mutated_names(node: ast.AST) -> set[str]:
    """Names possibly mutated *in place* inside ``node``.

    Any method call on a name (``acc.append(...)``), subscript or
    attribute store/delete through it (``caps[pos] += d``,
    ``obj.field = v``), counts: after such an operation the name's value
    may differ even though the binding never changed.
    """
    mutated: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            base = sub.func.value
            if isinstance(base, ast.Name):
                mutated.add(base.id)
        elif isinstance(sub, (ast.Subscript, ast.Attribute)) and isinstance(
            sub.ctx, (ast.Store, ast.Del)
        ):
            base = sub.value
            if isinstance(base, ast.Name):
                mutated.add(base.id)
    return mutated


def _closure_effects(func: FuncDef) -> dict[str, set[str]]:
    """Per nested function: names it rebinds or mutates when called.

    A loop that calls a locally-defined helper inherits that helper's
    effects -- ``_grow()`` bumping ``comp_caps`` makes any expression
    over ``comp_caps`` loop-variant even though the loop body never
    touches it directly.
    """
    effects: dict[str, set[str]] = {}
    for child in ast.walk(func):
        if (
            isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not func
        ):
            names = _mutated_names(child)
            for sub in ast.walk(child):
                if isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, (ast.Store, ast.Del)
                ):
                    names.add(sub.id)
            effects[child.name] = names
    return effects


def _loop_variant_names(
    loop: ast.For | ast.While, closure_effects: dict[str, set[str]]
) -> set[str]:
    """Every name whose value may change across iterations of ``loop``."""
    variant = _assigned_names(loop) | _mutated_names(loop)
    for node in ast.walk(loop):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            variant |= closure_effects.get(node.func.id, set())
    return variant


def _comp_targets(expr: ast.expr) -> set[str]:
    """Comprehension-scoped target names inside ``expr`` (not free)."""
    scoped: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                for name in ast.walk(gen.target):
                    if isinstance(name, ast.Name):
                        scoped.add(name.id)
    return scoped


def _free_names(expr: ast.expr) -> set[str]:
    """Name loads ``expr`` depends on (comprehension targets excluded)."""
    scoped = _comp_targets(expr)
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id not in scoped
    }


def _has_call(expr: ast.expr) -> bool:
    return any(
        isinstance(node, (ast.Call, ast.Await, ast.Yield, ast.YieldFrom))
        for node in ast.walk(expr)
    )


def _is_invariant(
    expr: ast.expr, assigned: set[str], *, allow_calls: bool = False
) -> bool:
    """Whether ``expr`` provably computes the same value every iteration.

    Requires every free name to be un-rebound in the loop and (unless
    ``allow_calls``) the expression to be call-free -- a call may read
    mutable state the loop changes.
    """
    if not allow_calls and _has_call(expr):
        return False
    return not (_free_names(expr) & assigned)


def _mutated_in(loop: ast.For | ast.While, name: str) -> bool:
    """Whether ``name`` is mutated in place inside ``loop``.

    Catches the fresh-container idiom: ``acc = dict(seed)`` followed by
    ``acc[k] = v`` or ``acc.update(...)`` per iteration is a deliberate
    per-iteration copy, not a hoistable invariant.
    """
    for node in ast.walk(loop):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            base = node.func.value
            if isinstance(base, ast.Name) and base.id == name:
                return True
        elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            base = node.value
            if isinstance(base, ast.Name) and base.id == name:
                return True
    return False


#: Constructor names whose call allocates a fresh container (REP110).
_ALLOC_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "frozenset",
        "tuple",
        "sorted",
        "zeros",
        "ones",
        "empty",
        "full",
        "arange",
        "array",
        "deque",
        "Counter",
        "defaultdict",
        "OrderedDict",
    }
)


# ----------------------------------------------------------------------
# REP109 -- hot-path complexity budget
# ----------------------------------------------------------------------
class HotPathBudgetRule(Rule):
    """Hot-path functions must respect their module's cost ceiling.

    Every function reachable from the solver registry,
    ``ServeEngine.apply``, or an oracle query entry point gets an
    interprocedural cost summary; a summary deeper than the module's
    ceiling in ``cost-budgets.toml`` (default depth 2 -- e.g. ``n*m``)
    is an error.  Raising a ceiling requires editing the committed
    budget file, which the CI ratchet watches: budgets may only grow in
    a PR that visibly changes the file.
    """

    id = "REP109"
    severity = "error"
    title = "hot-path cost over module budget"
    hint = (
        "restructure the loop nest, or raise the module ceiling in "
        "cost-budgets.toml with a reviewed justification"
    )

    #: Test override: explicit budgets path (else found near the root).
    budgets_path: str | Path | None = None

    def start(self) -> None:
        self._root: Path | None = None

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if self._root is None:
            path = str(ctx.path).replace("\\", "/")
            if path.endswith(ctx.rel):
                self._root = Path(path[: -len(ctx.rel)].rstrip("/") or "/")
        return iter(())

    def _budgets(self) -> dict[str, int]:
        path = self.budgets_path
        if path is None and self._root is not None:
            path = find_budgets_file(self._root)
        return load_budgets(path) if path is not None else {}

    def finalize(self) -> Iterator[Finding]:
        model = cost_model_for(self.project)
        budgets = self._budgets()
        calls = self.project.calls
        for node_id in sorted(model.hot_nodes()):
            summary = model.summaries[node_id]
            info = calls.functions[node_id]
            ceiling = budgets.get(info.module, DEFAULT_CEILING)
            if summary.total_depth <= ceiling:
                continue
            rel = self.project.rel_of_module(info.module) or ""
            via = (
                f" (via {summary.via} at line {summary.via_line})"
                if summary.via
                else ""
            )
            yield self.finding(
                rel,
                info.line,
                0,
                info.qualname,
                f"hot-path function costs {summary.cost_label}{via}, over "
                f"the '{info.module}' ceiling of depth {ceiling}",
            )


# ----------------------------------------------------------------------
# REP110 -- loop-invariant allocation in instance-sized loops
# ----------------------------------------------------------------------
class LoopInvariantAllocRule(Rule):
    """Hoist allocations that cannot change across loop iterations.

    Inside an instance-sized loop, building a non-empty container
    (literal, constructor call, comprehension) or concatenating strings
    into a local whose operands are all loop-invariant does O(size)
    allocation work per iteration for a value that could be computed
    once before the loop.  Empty-container seeds (``acc = []``) and
    containers mutated in the loop (the fresh-copy idiom) are exempt.
    """

    id = "REP110"
    severity = "error"
    title = "loop-invariant allocation in instance-sized loop"
    hint = "hoist the allocation above the loop (it never changes)"

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for site in ctx.functions:
            info = local_loops(site)
            if not info.instance_loops():
                continue
            qual = site.qualname
            effects = _closure_effects(site.node)
            seen: set[tuple[int, int]] = set()
            for loop_info in info.instance_loops():
                loop = loop_info.node
                assigned = _loop_variant_names(loop, effects)
                for stmt in ast.walk(loop):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    if len(stmt.targets) != 1 or not isinstance(
                        stmt.targets[0], ast.Name
                    ):
                        continue
                    target = stmt.targets[0].id
                    verdict = self._invariant_alloc(
                        stmt.value, assigned
                    )
                    if verdict is None:
                        continue
                    if _mutated_in(loop, target):
                        continue
                    key = (stmt.lineno, stmt.col_offset)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.finding(
                        ctx,
                        stmt.lineno,
                        stmt.col_offset,
                        f"{qual}.{target}",
                        f"{verdict} assigned to '{target}' inside an "
                        "instance-sized loop is loop-invariant",
                    )

    def _invariant_alloc(
        self, value: ast.expr, assigned: set[str]
    ) -> str | None:
        """Classify ``value``; a description when it is an invariant
        allocation, else ``None``."""
        if isinstance(value, (ast.List, ast.Set, ast.Tuple)):
            if not value.elts:
                return None  # empty seed: the fresh-container idiom
            if all(_is_invariant(e, assigned) for e in value.elts):
                return "container literal"
            return None
        if isinstance(value, ast.Dict):
            if not value.keys:
                return None
            parts = [k for k in value.keys if k is not None] + list(
                value.values
            )
            if all(_is_invariant(p, assigned) for p in parts):
                return "dict literal"
            return None
        if isinstance(
            value, (ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            if _is_invariant(value, assigned):
                return "comprehension"
            return None
        if isinstance(value, ast.Call):
            name = call_name(value)
            if name not in _ALLOC_CALLS or not (
                value.args or value.keywords
            ):
                return None
            operands = list(value.args) + [kw.value for kw in value.keywords]
            if all(_is_invariant(arg, assigned) for arg in operands):
                return f"'{name}(...)' construction"
            return None
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
            has_str = any(
                isinstance(side, ast.Constant) and isinstance(side.value, str)
                for side in (value.left, value.right)
            )
            if has_str and _is_invariant(value, assigned):
                return "string concatenation"
            return None
        return None


# ----------------------------------------------------------------------
# REP111 -- repeated linear membership in instance-sized loops
# ----------------------------------------------------------------------
class LinearMembershipRule(Rule):
    """``x in <list/tuple>`` inside an instance-sized loop is O(n*k).

    A membership probe against a list or tuple scans linearly on every
    iteration; over an instance-sized loop that multiplies into the
    very quadratic the cost tier exists to stop.  The probe target must
    become a ``set``/``dict`` (built once, O(1) lookups).  Constant
    tuple literals (``kind in ("a", "b")``) are idiomatic enum checks
    and exempt.
    """

    id = "REP111"
    severity = "error"
    title = "linear membership test in instance-sized loop"
    hint = "convert the probed list/tuple to a set/dict before the loop"

    _LINEAR_ANNOTATIONS = frozenset(
        {"list", "List", "tuple", "Tuple", "Sequence", "MutableSequence"}
    )
    _LINEAR_CALLS = frozenset({"list", "tuple", "sorted"})

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for site in ctx.functions:
            info = local_loops(site)
            if not any(
                li.kind == "instance" for li in info.loops
            ):
                continue
            qual = site.qualname
            linear = self._linear_names(site.node)
            seen: set[tuple[int, int]] = set()
            for loop_info in info.instance_loops():
                loop = loop_info.node
                assigned = _assigned_names(loop)
                for node in ast.walk(loop):
                    if not isinstance(node, ast.Compare):
                        continue
                    for op, comparator in zip(
                        node.ops, node.comparators
                    ):
                        if not isinstance(op, (ast.In, ast.NotIn)):
                            continue
                        name = self._linear_comparator(
                            comparator, linear, assigned
                        )
                        if name is None:
                            continue
                        key = (node.lineno, node.col_offset)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            f"{qual}.{name}",
                            f"membership test against list/tuple '{name}' "
                            "inside an instance-sized loop scans linearly "
                            "every iteration",
                        )

    def _linear_names(self, func: FuncDef) -> set[str]:
        """Local names provably bound to a list/tuple in ``func``."""
        linear: set[str] = set()
        nonlinear: set[str] = set()
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            ann = arg.annotation
            base = ""
            if isinstance(ann, ast.Subscript):
                ann = ann.value
            if isinstance(ann, (ast.Name, ast.Attribute)):
                base = ann.id if isinstance(ann, ast.Name) else ann.attr
            if base in self._LINEAR_ANNOTATIONS:
                linear.add(arg.arg)
        for node in ast.walk(func):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, (ast.List, ast.Tuple, ast.ListComp)) or (
                isinstance(value, ast.Call)
                and call_name(value) in self._LINEAR_CALLS
            ):
                linear.add(target.id)
            else:
                nonlinear.add(target.id)  # re-bound to something else
        return linear - nonlinear

    def _linear_comparator(
        self,
        comparator: ast.expr,
        linear: set[str],
        assigned: set[str],
    ) -> str | None:
        """Name/description when the comparator scans linearly."""
        if isinstance(comparator, ast.List):
            return "[...]" if comparator.elts else None
        if isinstance(comparator, ast.Name):
            if comparator.id in linear and comparator.id not in assigned:
                return comparator.id
        return None


# ----------------------------------------------------------------------
# REP112 -- hidden-rescan calls on hot paths
# ----------------------------------------------------------------------
class HiddenRescanRule(Rule):
    """Instance-sized calls inside instance-sized hot loops multiply.

    A call site sitting inside an instance-sized loop of a hot-path
    function, whose callee's own summary is instance-sized, composes
    to at least quadratic work -- invisible to any per-function reading
    of the code.  Some such sites are the algorithm (SSPA re-runs
    Dijkstra per augmentation); each one must carry a justification
    naming why the composition is intended.

    Scoped to the hot-path modules REP101 already polices
    (``network/``/``flow/``/``serve/`` + ``core/wma.py``): that is
    where a hidden rescan costs real serving latency.
    """

    id = "REP112"
    severity = "error"
    title = "instance-sized call inside instance-sized loop"
    hint = (
        "restructure (batch/precompute), or justify the composition: "
        "# reprolint: disable=REP112 -- <why this multiplies by design>"
    )

    HOT_PREFIXES = BudgetReachabilityRule.HOT_PREFIXES
    HOT_FILES = BudgetReachabilityRule.HOT_FILES

    def finalize(self) -> Iterator[Finding]:
        model = cost_model_for(self.project)
        calls = self.project.calls
        seen: set[tuple[str, int, str]] = set()
        for edge in calls.edges:
            if edge.kind not in ("call", "property"):
                continue
            caller = calls.functions.get(edge.caller)
            if caller is None:
                continue
            rel = self.project.rel_of_module(caller.module) or ""
            if not (
                rel.startswith(self.HOT_PREFIXES) or rel in self.HOT_FILES
            ):
                continue
            depth_here = model.depth_at(edge.caller, edge.line)
            if depth_here < 1:
                continue
            callee_summary = model.summary(edge.callee)
            if callee_summary is None or callee_summary.total_depth < 1:
                continue
            key = (edge.caller, edge.line, edge.callee)
            if key in seen:
                continue
            seen.add(key)
            callee_name = edge.callee.rsplit(".", 1)[-1]
            yield self.finding(
                rel,
                edge.line,
                0,
                f"{caller.qualname}:{edge.callee}",
                f"call to '{callee_name}' ({callee_summary.cost_label}) "
                f"inside an instance-sized loop of '{caller.qualname}' "
                "composes to hidden super-linear work",
            )


PERF_RULES: tuple[type[Rule], ...] = (
    HotPathBudgetRule,
    LoopInvariantAllocRule,
    LinearMembershipRule,
    HiddenRescanRule,
)
