"""Loop-cost reprolint rules (REP110, REP111) and their loop classifier.

The paper's solvers live or die by their asymptotic behaviour, and a
test-sized instance will not show an accidental quadratic.  So every
loop of every function is classified by what it ranges over: an
**instance-sized** collection (``network.nodes``/``edges``, customers,
facilities, selected sets, parameters annotated as collections, results
of calls) or a **bounded** constant.  The lattice is
two-valued (``bounded < instance``): anything the classifier cannot
prove bounded is instance-sized, the same conservatism REP101 applies.

- **REP110** -- loop-invariant allocation: container construction,
  comprehension, or str-concat inside an instance-sized loop whose
  operands never change across iterations must be hoisted.
- **REP111** -- repeated linear membership: ``x in <list/tuple>`` inside
  an instance-sized loop demands a set/dict.

Both are per-file, **error** severity and justification-only
(:data:`repro.analysis.engine.JUSTIFIED_RULES`): opting out must leave
a reviewed reason behind.  They share one classification per function
(:func:`local_loops`).  Stdlib-only, like the rest of ``analysis/``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.graphs import FuncDef, FunctionSite, call_name
from repro.analysis.rules import Rule

__all__ = [
    "PERF_RULES",
    "FunctionLoops",
    "LinearMembershipRule",
    "LoopInfo",
    "LoopInvariantAllocRule",
    "local_loops",
]

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
        return _final_name(ann)
    return ""


def _is_collection_annotation(ann: ast.expr | None) -> bool:
    return _annotation_base(ann) in _COLLECTION_ANNOTATIONS


Loop = ast.For | ast.AsyncFor | ast.While


@dataclass(eq=False)
class LoopInfo:
    """One classified loop: its kind and instance-loop nesting depth.

    ``depth`` counts the enclosing instance-sized loops, this one
    included when it is instance-sized itself.
    """

    node: Loop
    kind: str  # "instance" | "bounded"
    depth: int


@dataclass(eq=False)
class FunctionLoops:
    """The classified loops of one function, in source order."""

    loops: list[LoopInfo] = field(default_factory=list)

    def instance_loops(self) -> list[LoopInfo]:
        """The instance-sized loops, in source order."""
        return [info for info in self.loops if info.kind == "instance"]


class _LoopClassifier:
    """Classifies the loops of one function against the size lattice."""

    def __init__(self, func: FuncDef, owned: list[ast.AST]) -> None:
        self.func = func
        self.owned = owned
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
        # Any other call: data-dependent (REP101's conservatism).
        return True

    # -- the walk ------------------------------------------------------
    def run(self) -> FunctionLoops:
        result = FunctionLoops()
        self._walk_body(self.func.body, 0, result.loops)
        return result

    def _walk_body(
        self, body: list[ast.stmt], depth: int, loops: list[LoopInfo]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs are classified on their own
            if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                # A while loop's trip count is data-dependent by
                # construction.
                instance = isinstance(stmt, ast.While) or (
                    self._is_instance_iterable(stmt.iter, self.instance_names)
                )
                inner = depth + 1 if instance else depth
                kind = "instance" if instance else "bounded"
                loops.append(LoopInfo(stmt, kind, inner))
                self._walk_body(stmt.body, inner, loops)
                self._walk_body(stmt.orelse, depth, loops)
                continue
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
                self._walk_body(block, depth, loops)


def local_loops(site: FunctionSite) -> FunctionLoops:
    """``site``'s loop classification, made once per run and shared by
    REP110 and REP111."""
    if site.loops is None:
        site.loops = _LoopClassifier(site.node, site.owned).run()
    return site.loops


def _assigned_names(loop: Loop) -> set[str]:
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
    loop: Loop, closure_effects: dict[str, set[str]]
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


def _mutated_in(loop: Loop, name: str) -> bool:
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
            loops = local_loops(site).instance_loops()
            if not loops:
                continue
            qual = site.qualname
            effects = _closure_effects(site.node)
            seen: set[tuple[int, int]] = set()
            for loop_info in loops:
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
    very quadratic these rules exist to stop.  The probe target must
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
            loops = local_loops(site).instance_loops()
            if not loops:
                continue
            qual = site.qualname
            linear = self._linear_names(site.node)
            seen: set[tuple[int, int]] = set()
            for loop_info in loops:
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


PERF_RULES: tuple[type[Rule], ...] = (
    LoopInvariantAllocRule,
    LinearMembershipRule,
)
