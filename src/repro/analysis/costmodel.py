"""Symbolic loop-cost analysis: the fourth reprolint tier's engine.

The paper's solvers live or die by their asymptotic behaviour (SSPA
augmentation, lazy WMA reveals, oracle-backed streams), so this module
gives the lint a *cost model*: every loop in every function is
classified by what it ranges over -- an **instance-sized** collection
(``network.nodes``/``edges``, customers, facilities, selected sets,
parameters annotated as collections, results of calls returning
instance-sized data) or a **bounded** constant -- and per-function cost
summaries (max loop-nesting depth over instance-sized dimensions, e.g.
``n*m`` or ``k*n``) are propagated through the whole-program call graph
to an interprocedural fixpoint.  Nesting that only materialises across
function boundaries (``rebuild_rows`` looping over ``find_pair`` which
runs its own residual Dijkstra) is therefore visible to the rules in
:mod:`repro.analysis.perfrules` (REP109..REP112).

The size lattice is deliberately two-valued (``bounded < instance``):
anything the classifier cannot prove bounded is instance-sized, the
same conservatism REP101 applies.  Dimensions carry display symbols
(``n`` nodes, ``m`` customers, ``l`` candidate facilities, ``k``
selected, ``E`` edges) derived from the iterable's name so findings and
the ``repro lint --cost`` export read like the paper's complexity
claims.

Like everything under ``analysis/``, this module is stdlib-only
(REP102): it must run on a tree that cannot even import.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.graphs import (
    AnalysisProject,
    CallGraph,
    FuncDef,
    FunctionSite,
    owned_nodes,
    strongly_connected_components,
)

__all__ = [
    "DEFAULT_CEILING",
    "DEPTH_CAP",
    "ENTRY_POINTS",
    "CostModel",
    "CostSummary",
    "FunctionLoops",
    "LoopInfo",
    "analyze_function",
    "find_budgets_file",
    "load_budgets",
    "local_loops",
]

#: Instance nesting depth allowed on a hot path without a budget entry.
DEFAULT_CEILING = 2

#: Summaries never exceed this depth (terminates cyclic propagation).
DEPTH_CAP = 8

#: Call-graph roots whose reachable set is "the hot path": the solver
#: registry dispatch, the online engine's mutation entry, and the
#: distance-oracle query surfaces.
ENTRY_POINTS = (
    "<SOLVERS>",
    "serve.engine.ServeEngine.apply",
    "network.oracle.AltOracle.query",
    "network.ch.ContractionHierarchy.query",
)

#: Collection names (final attribute/variable identifier, leading
#: underscores stripped) that hold instance-sized data in this codebase.
INSTANCE_COLLECTIONS = frozenset(
    {
        "nodes",
        "edges",
        "arcs",
        "customers",
        "customer_nodes",
        "facilities",
        "facility_nodes",
        "capacities",
        "candidates",
        "selected",
        "assignment",
        "assigned",
        "matched",
        "settled",
        "rows",
        "handles",
        "supply",
        "neighbors",
        "frontier",
        "heap",
        "queue",
    }
)

#: Scalar names that denote an instance size (``range(state.m)``).
INSTANCE_SCALARS = frozenset(
    {"m", "l", "n", "k", "n_nodes", "n_edges", "n_customers",
     "n_facilities", "n_candidates", "n_selected"}
)

#: Display symbol per instance-dimension name (default ``n``).
_SYMBOL_OF = {
    "customers": "m",
    "customer_nodes": "m",
    "m": "m",
    "n_customers": "m",
    "facilities": "l",
    "facility_nodes": "l",
    "capacities": "l",
    "l": "l",
    "n_facilities": "l",
    "candidates": "l",
    "n_candidates": "l",
    "selected": "k",
    "k": "k",
    "n_selected": "k",
    "edges": "E",
    "arcs": "E",
    "n_edges": "E",
}

#: Builtins whose result is only as large as their (classified) inputs.
_BOUNDED_WRAPPERS = frozenset(
    {"range", "enumerate", "zip", "reversed", "sorted", "list", "tuple",
     "set", "frozenset", "iter", "map", "filter", "len"}
)

#: ``.items()``-style methods: classify the receiver instead.
_VIEW_METHODS = frozenset({"items", "keys", "values"})

#: Annotation bases meaning "a collection scaling with the instance".
_COLLECTION_ANNOTATIONS = frozenset(
    {"list", "dict", "set", "frozenset", "deque", "ndarray", "Sequence",
     "MutableSequence", "Iterable", "Iterator", "Generator", "Mapping",
     "MutableMapping", "AbstractSet", "MutableSet", "Collection",
     "Counter", "defaultdict", "OrderedDict"}
)


def _final_name(expr: ast.expr) -> str:
    """Last identifier of a Name/Attribute chain, underscores stripped."""
    if isinstance(expr, ast.Attribute):
        return expr.attr.lstrip("_")
    if isinstance(expr, ast.Name):
        return expr.id.lstrip("_")
    return ""


def _annotation_base(ann: ast.expr | None) -> str:
    """Unsubscripted final name of an annotation (``Sequence`` for
    ``Sequence[int]``, handles string annotations and ``X | None``)."""
    if ann is None:
        return ""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return ""
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        left = _annotation_base(ann.left)
        return left or _annotation_base(ann.right)
    if isinstance(ann, ast.Subscript):
        base = _annotation_base(ann.value)
        if base == "Optional":
            return _annotation_base(ann.slice)
        return base
    if isinstance(ann, (ast.Name, ast.Attribute)):
        name = _final_name(ann)
        return name
    return ""


def _is_collection_annotation(ann: ast.expr | None) -> bool:
    return _annotation_base(ann) in _COLLECTION_ANNOTATIONS


def _symbol_for(name: str) -> str:
    return _SYMBOL_OF.get(name, "n")


@dataclass(eq=False)
class LoopInfo:
    """One classified loop: kind, dimension symbol, and nesting depth.

    ``depth`` counts enclosing instance-sized loops *including this one*
    for instance loops; bounded loops report the enclosing instance
    depth unchanged.
    """

    node: ast.For | ast.While
    line: int
    kind: str  # "instance" | "bounded"
    symbol: str
    depth: int


@dataclass(eq=False)
class FunctionLoops:
    """Local (intraprocedural) loop-cost facts of one function."""

    loops: list[LoopInfo] = field(default_factory=list)
    #: 1-based source line -> instance-dimension symbol stack there.
    stack_by_line: dict[int, tuple[str, ...]] = field(default_factory=dict)
    local_depth: int = 0
    local_dims: tuple[str, ...] = ()
    returns_instance: bool = False
    #: local/parameter names holding instance-sized collections.
    instance_names: frozenset[str] = frozenset()

    def depth_at(self, line: int) -> int:
        """Instance-loop nesting depth at a source line (0 outside)."""
        return len(self.stack_by_line.get(line, ()))

    def stack_at(self, line: int) -> tuple[str, ...]:
        """Instance-dimension symbols enclosing a source line."""
        return self.stack_by_line.get(line, ())

    def instance_loops(self) -> list[LoopInfo]:
        """The instance-sized loops, in source order."""
        return [info for info in self.loops if info.kind == "instance"]


class _LoopClassifier:
    """Classifies the loops of one function against the size lattice."""

    def __init__(
        self,
        func: FuncDef,
        owned: list[ast.AST],
        call_oracle: object | None = None,
    ) -> None:
        self.func = func
        self.owned = owned
        #: ``call_oracle(call) -> bool | None``: whether a call expression
        #: returns instance-sized data (None = unresolved).  The project
        #: level model supplies call-graph knowledge; local rules pass
        #: nothing and unresolved calls default to instance-sized.
        self.call_oracle = call_oracle
        self.instance_names = self._instance_typed_names()

    # -- name typing ---------------------------------------------------
    def _instance_typed_names(self) -> frozenset[str]:
        """Parameter/local names bound to instance-sized collections."""
        names: set[str] = set()
        args = self.func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if _is_collection_annotation(arg.annotation) or (
                arg.arg.lstrip("_") in INSTANCE_COLLECTIONS
            ):
                names.add(arg.arg)
        changed = True
        while changed:
            changed = False
            for node in self.owned:
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    if _is_collection_annotation(node.annotation) and isinstance(
                        target, ast.Name
                    ) and target.id not in names:
                        names.add(target.id)
                        changed = True
                if (
                    isinstance(target, ast.Name)
                    and value is not None
                    and target.id not in names
                    and self._instance_expr(value, names)
                ):
                    names.add(target.id)
                    changed = True
        return frozenset(names)

    def _instance_expr(self, expr: ast.expr, names: set[str]) -> bool:
        """Whether an assigned expression is an instance-sized collection.

        Only *propagating* forms count here (aliases, sorted/list of an
        instance collection); literals stay bounded so ``x = [a, b]``
        never taints ``x``.
        """
        if isinstance(expr, ast.Name):
            return expr.id in names or (
                expr.id.lstrip("_") in INSTANCE_COLLECTIONS
            )
        if isinstance(expr, ast.Attribute):
            return _final_name(expr) in INSTANCE_COLLECTIONS
        if isinstance(expr, ast.Call):
            name = expr.func.id if isinstance(expr.func, ast.Name) else ""
            if name in ("sorted", "list", "tuple", "set", "frozenset"):
                return bool(expr.args) and self._instance_expr(
                    expr.args[0], names
                )
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            return any(
                self._is_instance_iterable(g.iter, names)
                for g in expr.generators
            )
        return False

    # -- iterable classification ---------------------------------------
    def _is_instance_iterable(
        self, expr: ast.expr, names: set[str] | frozenset[str]
    ) -> bool:
        """Instance-sized verdict for a ``for`` iterable expression."""
        if isinstance(expr, ast.Constant):
            return False
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            # Literal containers are bounded by their arity; only an
            # instance-sized *element* (a nested iterable) taints them.
            return any(
                self._is_instance_iterable(e, names)
                for e in expr.elts
                if not isinstance(e, ast.Constant)
            )
        if isinstance(expr, ast.Name):
            return expr.id in names or (
                expr.id.lstrip("_") in INSTANCE_COLLECTIONS
            )
        if isinstance(expr, ast.Attribute):
            final = _final_name(expr)
            return (
                final in INSTANCE_COLLECTIONS or final in INSTANCE_SCALARS
            )
        if isinstance(expr, ast.Subscript):
            # ``adj[u]`` -- a row of an instance-sized table: the row may
            # be small but iterating rows inside a node loop sums to the
            # instance; stay conservative and classify the base.
            return self._is_instance_iterable(expr.value, names)
        if isinstance(expr, ast.Call):
            return self._classify_call(expr, names)
        if isinstance(expr, ast.IfExp):
            return self._is_instance_iterable(
                expr.body, names
            ) or self._is_instance_iterable(expr.orelse, names)
        if isinstance(expr, ast.BinOp):
            return self._is_instance_iterable(
                expr.left, names
            ) or self._is_instance_iterable(expr.right, names)
        if isinstance(expr, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            return any(
                self._is_instance_iterable(g.iter, names)
                for g in expr.generators
            )
        if isinstance(expr, ast.Starred):
            return self._is_instance_iterable(expr.value, names)
        # Anything else (await, lambda results, ...) -- data dependent.
        return True

    def _classify_call(
        self, call: ast.Call, names: set[str] | frozenset[str]
    ) -> bool:
        func = call.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name in _BOUNDED_WRAPPERS:
            return any(
                self._is_instance_iterable(arg, names) for arg in call.args
            )
        if name in _VIEW_METHODS and isinstance(func, ast.Attribute):
            return self._is_instance_iterable(func.value, names)
        if self.call_oracle is not None:
            verdict = self.call_oracle(call)  # type: ignore[operator]
            if verdict is not None:
                return bool(verdict)
        # Unresolved call: data-dependent (REP101's conservatism).
        return True

    def _symbol_of_iterable(self, expr: ast.expr) -> str:
        if isinstance(expr, ast.Call):
            func = expr.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name in _BOUNDED_WRAPPERS and expr.args:
                return self._symbol_of_iterable(expr.args[0])
            if name in _VIEW_METHODS and isinstance(func, ast.Attribute):
                return self._symbol_of_iterable(func.value)
        final = _final_name(expr) if isinstance(
            expr, (ast.Name, ast.Attribute)
        ) else ""
        return _symbol_for(final)

    # -- the walk ------------------------------------------------------
    def run(self) -> FunctionLoops:
        self._result_stack: dict[int, tuple[str, ...]] = {}
        result = FunctionLoops(instance_names=self.instance_names)
        self._walk_body(list(self.func.body), (), result)
        result.stack_by_line = self._result_stack
        result.returns_instance = self._returns_instance()
        for info in result.loops:
            if info.depth > result.local_depth:
                result.local_depth = info.depth
        # Deepest symbol stack = the local dimension product.
        for stack in result.stack_by_line.values():
            if len(stack) == result.local_depth and not result.local_dims:
                result.local_dims = stack
        return result

    def _returns_instance(self) -> bool:
        if _is_collection_annotation(self.func.returns):
            return True
        for node in self.owned:
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
        return False

    def _walk_body(
        self,
        body: list[ast.stmt],
        stack: tuple[str, ...],
        result: FunctionLoops,
    ) -> None:
        for stmt in body:
            self._mark_lines(stmt, stack)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs cost on their own summaries
            if isinstance(stmt, ast.While):
                # Data-dependent trip count by construction.
                symbol = "n"
                info = LoopInfo(
                    node=stmt,
                    line=stmt.lineno,
                    kind="instance",
                    symbol=symbol,
                    depth=len(stack) + 1,
                )
                result.loops.append(info)
                self._walk_body(stmt.body, stack + (symbol,), result)
                self._walk_body(stmt.orelse, stack, result)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if self._is_instance_iterable(stmt.iter, self.instance_names):
                    symbol = self._symbol_of_iterable(stmt.iter)
                    info = LoopInfo(
                        node=stmt,
                        line=stmt.lineno,
                        kind="instance",
                        symbol=symbol,
                        depth=len(stack) + 1,
                    )
                    result.loops.append(info)
                    self._walk_body(stmt.body, stack + (symbol,), result)
                else:
                    result.loops.append(
                        LoopInfo(
                            node=stmt,
                            line=stmt.lineno,
                            kind="bounded",
                            symbol="",
                            depth=len(stack),
                        )
                    )
                    self._walk_body(stmt.body, stack, result)
                self._walk_body(stmt.orelse, stack, result)
            else:
                sub: list[list[ast.stmt]] = []
                if isinstance(stmt, ast.If):
                    sub = [stmt.body, stmt.orelse]
                elif isinstance(stmt, ast.Try):
                    sub = [stmt.body, stmt.orelse, stmt.finalbody]
                    sub.extend(h.body for h in stmt.handlers)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    sub = [stmt.body]
                elif isinstance(stmt, ast.Match):
                    sub = [case.body for case in stmt.cases]
                for block in sub:
                    self._walk_body(block, stack, result)

    def _mark_lines(self, stmt: ast.stmt, stack: tuple[str, ...]) -> None:
        """Record the dimension stack for every line the header spans."""
        end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
        for line in range(stmt.lineno, end + 1):
            existing = self.stack_by_line_ref.get(line)
            if existing is None or len(stack) > len(existing):
                self.stack_by_line_ref[line] = stack

    @property
    def stack_by_line_ref(self) -> dict[int, tuple[str, ...]]:
        return self._result_stack


def analyze_function(
    func: FuncDef, call_oracle: object | None = None
) -> FunctionLoops:
    """Classify one function's loops without any whole-program context.

    ``call_oracle`` may map a call expression to an instance-sized
    verdict; without one, unresolved calls are conservatively
    instance-sized (the same default REP101 uses).
    """
    return _LoopClassifier(func, owned_nodes(func), call_oracle).run()


def local_loops(site: FunctionSite) -> FunctionLoops:
    """``site``'s call-oracle-free loop classification, made once per run.

    REP110 and REP111 both read it; unresolved calls count as
    instance-sized, as in :func:`analyze_function`.
    """
    if site.loops is None:
        site.loops = _LoopClassifier(site.node, site.owned).run()
    return site.loops


@dataclass(frozen=True)
class CostSummary:
    """Interprocedural cost of one function.

    ``total_depth`` is the fixpoint max over (a) the function's own
    instance-loop nesting and (b) for every resolved call site, the
    instance depth at the site plus the callee's total.  ``dims`` spells
    the worst chain's dimension symbols (``("m", "n")`` renders as
    ``m*n``); ``via``/``via_line`` name the call edge responsible when
    the worst chain crosses a function boundary.
    """

    node_id: str
    local_depth: int
    total_depth: int
    dims: tuple[str, ...]
    via: str = ""
    via_line: int = 0
    recursive: bool = False
    returns_instance: bool = False

    @property
    def cost_label(self) -> str:
        """Human form of the cost: ``O(1)``, ``O(n)``, ``O(m*n)`` ..."""
        if self.total_depth == 0:
            return "O(1)"
        dims = self.dims or ("n",) * self.total_depth
        return "O(" + "*".join(dims) + ")"


class CostModel:
    """Interprocedural loop-cost summaries over one analysis project."""

    def __init__(self, project: AnalysisProject) -> None:
        self.project = project
        calls = project.calls
        self._locals: dict[str, FunctionLoops] = {}
        for node_id in sorted(calls.functions):
            site = calls.function_site(node_id)
            if site is None:
                continue
            oracle = self._call_oracle_for(calls, node_id)
            self._locals[node_id] = _LoopClassifier(
                site.node, site.owned, oracle
            ).run()
        self.summaries: dict[str, CostSummary] = {}
        self._propagate(calls)
        self._hot: set[str] | None = None

    # -- construction --------------------------------------------------
    def _call_oracle_for(self, calls: CallGraph, node_id: str) -> object:
        """Resolve ``for x in f(...)`` through callee return summaries.

        Uses annotation-derived ``returns_instance`` (available before
        propagation); a call resolved to a scalar-returning function is
        *bounded*, which is what keeps ``range(state.m)``-style loops
        honest while ``for e in network.edges_of(u)`` stays instance.
        """
        edges_by_line: dict[int, list[str]] = {}
        for edge in calls.edges:
            if edge.caller == node_id and edge.kind in ("call", "property"):
                edges_by_line.setdefault(edge.line, []).append(edge.callee)

        def oracle(call: ast.Call) -> bool | None:
            callees = edges_by_line.get(call.lineno)
            if not callees:
                return None
            for callee in callees:
                site = calls.function_site(callee)
                if site is None:
                    continue
                if _is_collection_annotation(site.node.returns):
                    return True
                for node in ast.walk(site.node):
                    if isinstance(node, (ast.Yield, ast.YieldFrom)):
                        return True
            # Every resolved callee returns non-collection data.
            return False

        return oracle

    def _propagate(self, calls: CallGraph) -> None:
        """Bottom-up (SCC condensation) interprocedural fixpoint."""
        edges_from: dict[str, list[tuple[str, int]]] = {}
        for edge in calls.edges:
            if edge.kind == "registry":
                continue
            edges_from.setdefault(edge.caller, []).append(
                (edge.callee, edge.line)
            )
        successors = {
            caller: {callee for callee, _line in sites}
            for caller, sites in edges_from.items()
        }
        order = [
            frozenset(scc)
            for scc in strongly_connected_components(
                sorted(calls.functions), successors
            )
        ]
        scc_of = {member: scc for scc in order for member in scc}
        totals: dict[str, int] = {}
        dims: dict[str, tuple[str, ...]] = {}
        via: dict[str, tuple[str, int]] = {}
        recursive: set[str] = set()
        for scc in order:  # callees before callers
            if len(scc) > 1:
                recursive.update(scc)
            for node_id in sorted(scc):
                info = self._locals.get(node_id)
                if info is None:
                    continue
                best = info.local_depth
                best_dims = info.local_dims
                best_via: tuple[str, int] = ("", 0)
                for callee, line in sorted(edges_from.get(node_id, ())):
                    if callee == node_id or scc_of.get(callee) is scc:
                        recursive.add(node_id)
                        continue  # cycle edge: depth already capped
                    callee_total = totals.get(callee, 0)
                    if callee_total == 0:
                        continue
                    here = info.stack_at(line)
                    cand = min(len(here) + callee_total, DEPTH_CAP)
                    if cand > best:
                        best = cand
                        best_dims = (here + dims.get(callee, ()))[:cand]
                        best_via = (callee, line)
                totals[node_id] = min(best, DEPTH_CAP)
                dims[node_id] = best_dims
                if best_via[0]:
                    via[node_id] = best_via
        for node_id, info in self._locals.items():
            v, v_line = via.get(node_id, ("", 0))
            self.summaries[node_id] = CostSummary(
                node_id=node_id,
                local_depth=info.local_depth,
                total_depth=totals.get(node_id, info.local_depth),
                dims=dims.get(node_id, info.local_dims),
                via=v,
                via_line=v_line,
                recursive=node_id in recursive,
                returns_instance=info.returns_instance,
            )

    # -- queries -------------------------------------------------------
    def summary(self, node_id: str) -> CostSummary | None:
        """The interprocedural summary of one function, if known."""
        return self.summaries.get(node_id)

    def loops_of(self, node_id: str) -> FunctionLoops | None:
        """Local classified-loop facts of one function, if known."""
        return self._locals.get(node_id)

    def depth_at(self, node_id: str, line: int) -> int:
        info = self._locals.get(node_id)
        return info.depth_at(line) if info is not None else 0

    def hot_nodes(self) -> set[str]:
        """Functions reachable from the hot-path entry points."""
        if self._hot is None:
            calls = self.project.calls
            roots = [
                node
                for node in ENTRY_POINTS
                if node in calls.functions or node == "<SOLVERS>"
            ]
            self._hot = calls.reachable_from(roots) & set(self.summaries)
        return self._hot

    def module_costs(self) -> dict[str, tuple[int, str]]:
        """Per-module worst hot-function cost: ``module -> (depth, node)``."""
        worst: dict[str, tuple[int, str]] = {}
        hot = self.hot_nodes()
        for node_id in sorted(hot):
            summary = self.summaries[node_id]
            module = self.project.calls.functions[node_id].module
            depth, _holder = worst.get(module, (-1, ""))
            if summary.total_depth > depth:
                worst[module] = (summary.total_depth, node_id)
        return worst

    # -- export --------------------------------------------------------
    def as_dict(self, budgets: dict[str, int] | None = None) -> dict[str, object]:
        """JSON-ready cost tree (the ``repro lint --cost`` artifact)."""
        budgets = budgets or {}
        hot = self.hot_nodes()
        functions: dict[str, dict[str, object]] = {}
        for node_id in sorted(self.summaries):
            summary = self.summaries[node_id]
            if summary.total_depth == 0 and node_id not in hot:
                continue  # flat cold functions add nothing but bytes
            info = self.project.calls.functions.get(node_id)
            functions[node_id] = {
                "module": info.module if info else "",
                "local_depth": summary.local_depth,
                "total_depth": summary.total_depth,
                "cost": summary.cost_label,
                "dims": list(summary.dims),
                "hot": node_id in hot,
                "recursive": summary.recursive,
                "via": summary.via,
                "via_line": summary.via_line,
            }
        modules = {
            module: {
                "max_depth": depth,
                "worst": node_id,
                "ceiling": budgets.get(module, DEFAULT_CEILING),
            }
            for module, (depth, node_id) in sorted(
                self.module_costs().items()
            )
        }
        return {
            "kind": "cost",
            "default_ceiling": DEFAULT_CEILING,
            "entry_points": list(ENTRY_POINTS),
            "functions": functions,
            "modules": modules,
        }

    def to_dot(self, budgets: dict[str, int] | None = None) -> str:
        """GraphViz rendering of the hot-path cost tree.

        Nodes are hot functions labelled with their cost; edges are the
        ``via`` links explaining where cross-function depth comes from.
        Functions over their module ceiling render red.
        """
        budgets = budgets or {}
        hot = self.hot_nodes()
        lines = ["digraph cost {", "  rankdir=LR;", "  node [shape=box];"]
        for node_id in sorted(hot):
            summary = self.summaries[node_id]
            if summary.total_depth == 0:
                continue
            info = self.project.calls.functions.get(node_id)
            module = info.module if info else ""
            ceiling = budgets.get(module, DEFAULT_CEILING)
            color = ' color=red' if summary.total_depth > ceiling else ""
            lines.append(
                f'  "{node_id}" [label="{node_id}\\n'
                f'{summary.cost_label}"{color}];'
            )
        for node_id in sorted(hot):
            summary = self.summaries[node_id]
            if summary.via and summary.via in self.summaries:
                lines.append(f'  "{node_id}" -> "{summary.via}";')
        lines.append("}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Budget file (cost-budgets.toml)
# ----------------------------------------------------------------------
_BUDGET_LINE = re.compile(
    r'^\s*(?:"(?P<quoted>[^"]+)"|(?P<bare>[A-Za-z0-9_.\-]+))\s*=\s*'
    r"(?P<value>\d+)\s*(?:#.*)?$"
)


def load_budgets(path: str | Path) -> dict[str, int]:
    """Parse ``cost-budgets.toml``: ``module -> ceiling`` under ``[budgets]``.

    Uses :mod:`tomllib` when available (3.11+) and falls back to a
    restricted line parser (quoted or bare keys, integer values) so the
    3.10 floor needs no third-party TOML dependency.  A missing file is
    an empty budget set (every module at :data:`DEFAULT_CEILING`).
    """
    path = Path(path)
    if not path.is_file():
        return {}
    text = path.read_text(encoding="utf-8")
    try:
        import tomllib

        doc = tomllib.loads(text)
        table = doc.get("budgets", {})
        return {
            str(key): int(value)
            for key, value in table.items()
            if isinstance(value, int)
        }
    except ModuleNotFoundError:
        pass
    budgets: dict[str, int] = {}
    in_table = False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            in_table = stripped == "[budgets]"
            continue
        if not in_table:
            continue
        match = _BUDGET_LINE.match(line)
        if match:
            key = match.group("quoted") or match.group("bare")
            budgets[key] = int(match.group("value"))
    return budgets


def find_budgets_file(root: str | Path) -> Path | None:
    """Locate ``cost-budgets.toml`` near the linted root (repo layouts)."""
    root = Path(root)
    for candidate_dir in (root, *root.parents[:3]):
        candidate = candidate_dir / "cost-budgets.toml"
        if candidate.is_file():
            return candidate
    return None
