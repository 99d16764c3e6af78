"""Path rules (REP105..REP108): invariants that must hold on every path.

Each rule reads the function index (``FileContext.functions``).
REP105, REP106's salvage clause and REP108's all-paths clause read a
function's own statement lists -- the statement after an acquisition,
a handler's statements in order, the statement a body ends on.  Each
accepts only shapes whose every path is plain from statement order, so
no control-flow graph is built.  REP106's broad-handler clause resolves
calls through the whole-program call graph in :meth:`Rule.finalize`;
REP107 and the rest of REP108 are lexical.

All four are **error** severity and their suppressions require a
``-- <reason>`` justification (:data:`repro.analysis.engine.JUSTIFIED_RULES`):
each one guards a serving-stack invariant (leaked shared-memory under
exception, a swallowed ``BudgetExceeded``, set-order nondeterminism,
an incomplete ``ServeResult``) where a silent opt-out is itself a bug.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.graphs import (
    FuncDef,
    FunctionSite,
    call_name,
    dotted_name,
    is_checkpoint_call,
    module_name,
)
from repro.analysis.rules import Rule

__all__ = [
    "BudgetExceptionSafetyRule",
    "MustReleaseResourceRule",
    "PATH_RULES",
    "ServeStateMachineRule",
    "SetOrderDeterminismRule",
]

#: Statements that carry statement lists of their own, or run none of
#: their body on the spot (nested ``def``/``class``).
_COMPOUND = (
    ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith,
    ast.Try, ast.Match, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
)


def _final_name(node: ast.expr | None) -> str:
    """Last identifier of a Name/Attribute chain (``c`` for ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _exception_names(node: ast.expr | None) -> set[str]:
    """Exception class names an ``except`` clause matches (lexically)."""
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        names = set()
        for elt in node.elts:
            names |= _exception_names(elt)
        return names
    name = _final_name(node)
    return {name} if name else set()


def _always_leaves(body: list[ast.stmt], *, returns: bool = False) -> bool:
    """Whether every path through ``body`` ends in a ``raise`` (structural).

    With ``returns``, a ``return`` ends a path too.  Conservative: only
    top-level ``raise``/``return`` statements and fully-leaving
    ``if``/``else`` splits count; anything it cannot prove is treated as
    falling through.
    """
    for stmt in body:
        if isinstance(stmt, ast.Raise):
            return True
        if isinstance(stmt, ast.Return):
            return returns
        if isinstance(stmt, ast.If) and stmt.orelse:
            if _always_leaves(stmt.body, returns=returns) and _always_leaves(
                stmt.orelse, returns=returns
            ):
                return True
    return False


def _blocks(
    body: list[ast.stmt], trys: tuple[ast.Try, ...] = ()
) -> Iterator[tuple[list[ast.stmt], tuple[ast.Try, ...]]]:
    """Every statement list under ``body``, with the ``try``s enclosing it.

    Nested ``def`` and ``class`` bodies are left out: they do not run as
    part of the function.
    """
    yield body, trys
    for stmt in body:
        inner = (*trys, stmt) if isinstance(stmt, ast.Try) else trys
        for sub in _sub_blocks(stmt):
            if sub:
                yield from _blocks(sub, inner)


def _sub_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists a compound statement runs in place."""
    if isinstance(stmt, ast.Try):
        return [
            stmt.body,
            *(handler.body for handler in stmt.handlers),
            stmt.orelse,
            stmt.finalbody,
        ]
    if isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
        return [stmt.body, stmt.orelse]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [stmt.body]
    if isinstance(stmt, ast.Match):
        return [case.body for case in stmt.cases]
    return []


# ----------------------------------------------------------------------
# REP105 -- must-release resource lifecycle
# ----------------------------------------------------------------------
class MustReleaseResourceRule(Rule):
    """Locally-owned resources must be released on *every* path.

    A ``SharedMemory`` segment, process pool, opened file/``.npz``
    handle, or tracer span acquired into a local variable must be
    guarded by the very next statement of its block: a ``with`` that
    enters it, a ``try`` whose ``finally:`` releases it first thing, or
    a top-level release call (``close``/``unlink``/``terminate``/
    ``join``/...).  Any statement in between may raise past the
    release.  The serving stack keeps these objects alive across
    batches, so one exception-path leak per request is an unbounded
    leak under traffic.

    The finding names "an exception path" when a later statement of
    the block does release or guard the object, and "a normal return
    path" when none does.  Objects that escape the function -- passed
    to a call, returned/yielded, stored on an attribute or into a
    container, aliased -- transfer ownership and are exempt.
    """

    id = "REP105"
    severity = "error"
    title = "resource not released on all paths"
    hint = (
        "release in a finally: or use a with-statement; if ownership "
        "moves elsewhere make the transfer explicit (store/return/pass "
        "it), or suppress with a justification: "
        "'# reprolint: disable=REP105 -- <reason>'"
    )

    #: call-name / dotted-suffix -> human resource kind.
    _ACQUIRERS = {
        "SharedMemory": "shared-memory segment",
        "Pool": "process pool",
        "open": "file handle",
        "np.load": "npz handle",
        "numpy.load": "npz handle",
        "span": "tracer span",
        "start_span": "tracer span",
    }
    _RELEASES = frozenset(
        {"close", "unlink", "terminate", "join", "shutdown", "release",
         "end", "stop", "__exit__"}
    )

    def _acquisition_kind(self, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        dotted = dotted_name(value.func)
        name = call_name(value)
        if dotted in self._ACQUIRERS:
            return self._ACQUIRERS[dotted]
        if name in ("SharedMemory", "Pool", "span", "start_span"):
            return self._ACQUIRERS[name]
        if name == "open" and isinstance(value.func, ast.Name):
            return self._ACQUIRERS["open"]
        return None

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for site in ctx.functions:
            func = site.node
            escaped: set[str] | None = None
            for stmts, _ in _blocks(func.body):
                for i, stmt in enumerate(stmts):
                    if not (
                        isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                    ):
                        continue
                    kind = self._acquisition_kind(stmt.value)
                    if kind is None:
                        continue
                    var = stmt.targets[0].id
                    if escaped is None:
                        escaped = self._escaped_names(site.owned)
                    if var in escaped:
                        continue
                    guarded = [self._guards(s, var) for s in stmts[i + 1 :]]
                    if guarded and guarded[0]:
                        continue
                    where = (
                        "an exception path"
                        if any(guarded)
                        else "a normal return path"
                    )
                    yield self.finding(
                        ctx,
                        stmt.lineno,
                        0,
                        f"{func.name}.{var}",
                        f"{kind} {var!r} acquired here may leave "
                        f"{func.name}() unreleased along {where}",
                    )

    def _guards(self, stmt: ast.stmt, var: str) -> bool:
        """Whether ``stmt`` releases ``var`` on every path through it.

        That is a top-level release call, a ``with`` that enters it
        (``with shm:`` / ``with closing(shm):``), or a ``try`` whose
        ``finally:`` starts with a release call.
        """
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return any(
                isinstance(node, ast.Name) and node.id == var
                for item in stmt.items
                for node in ast.walk(item.context_expr)
            )
        if isinstance(stmt, ast.Try):
            return bool(stmt.finalbody) and self._releases(
                stmt.finalbody[0], var
            )
        return self._releases(stmt, var)

    def _releases(self, stmt: ast.stmt, var: str) -> bool:
        """Whether ``stmt`` is a simple statement calling ``var.close()``
        (or another release method)."""
        return not isinstance(stmt, _COMPOUND) and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == var
            and node.func.attr in self._RELEASES
            for node in ast.walk(stmt)
        )

    @staticmethod
    def _escaped_names(owned: list[ast.AST]) -> set[str]:
        """Names whose object leaves the function (ownership transfer)."""
        escaped: set[str] = set()

        def note(expr: ast.expr | None) -> None:
            if expr is None:
                return
            for node in ast.walk(expr):
                if isinstance(node, ast.Name):
                    escaped.add(node.id)

        for node in owned:
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                note(node.value)
            elif isinstance(node, ast.Call):
                # A bare name passed to any call (except a method call
                # *on* the name itself) hands the object over --
                # ``self._blocks.append(shm)``, ``stack.enter_context(f)``.
                for arg in [*node.args, *[k.value for k in node.keywords]]:
                    if isinstance(arg, ast.Name):
                        escaped.add(arg.id)
            elif isinstance(node, ast.Assign):
                targets_escape = any(
                    isinstance(t, (ast.Attribute, ast.Subscript, ast.Tuple,
                                   ast.List))
                    for t in node.targets
                )
                if targets_escape or isinstance(node.value, ast.Name):
                    # stored on an object / unpacked, or aliased
                    note(node.value)
                elif isinstance(
                    node.value, (ast.List, ast.Tuple, ast.Dict, ast.Set)
                ):
                    note(node.value)
        return escaped


# ----------------------------------------------------------------------
# REP106 -- exception-safety of budget paths
# ----------------------------------------------------------------------
class BudgetExceptionSafetyRule(Rule):
    """Budget-checkpointed regions must not swallow ``BudgetExceeded``.

    The deadline runtime is cooperative end to end: a checkpoint raises
    :class:`~repro.errors.BudgetExceeded` and *every* frame between it
    and ``solve_with_fallback`` must let it pass.  Two clauses:

    * A broad handler (``except Exception``/``BaseException``/bare)
      guarding a try body that can raise ``BudgetExceeded`` -- a lexical
      checkpoint/``tick``/``raise BudgetExceeded``, or a resolved call
      into the call graph's checkpoint-reaching set -- must be preceded
      by a handler naming ``BudgetExceeded`` (or an ancestor:
      ``SolverError``/``ReproError``) or must itself re-raise on every
      path (structural check).
    * A handler that catches ``BudgetExceeded`` *by name* and salvages
      (does not always re-raise) must mark degradation in one of its
      own top-level statements -- ``...["degraded"] = ...``, an
      attribute store, or setting a flag read elsewhere in the
      function -- and no statement before the marking may ``return``,
      ``break`` or ``continue``.  When the ``try`` has a ``finally:``
      or sits inside another ``try``, an exception raised before the
      marking could itself be caught on the way to a ``return``, so
      the marking must come first.  The finding points at the first
      statement that may leave unmarked, or at the handler when its
      body never marks.
    """

    id = "REP106"
    severity = "error"
    title = "budget path swallows or silently salvages BudgetExceeded"
    hint = (
        "add 'except BudgetExceeded: raise' before the broad handler "
        "(or re-raise inside it), and set meta['degraded'] on salvage "
        "returns; suppress with a justification: "
        "'# reprolint: disable=REP106 -- <reason>'"
    )

    _BROAD = frozenset({"Exception", "BaseException"})
    #: Catching any of these intercepts BudgetExceeded explicitly.
    _BUDGET_NAMES = frozenset({"BudgetExceeded", "SolverError", "ReproError"})

    def start(self) -> None:
        # (rel, node_id, func, try_node, handler)
        self._broad: list[
            tuple[str, str, FuncDef, ast.Try, ast.ExceptHandler]
        ] = []

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        module = module_name(ctx.rel)
        for site in ctx.functions:
            func = site.node
            node_id = f"{module}.{site.qualname}" if module else site.qualname
            salvages = False
            for stmt in site.owned:
                if not isinstance(stmt, ast.Try):
                    continue
                budget_shielded = False
                for handler in stmt.handlers:
                    names = _exception_names(handler.type)
                    if names & self._BUDGET_NAMES:
                        salvages |= self._salvages(handler)
                        budget_shielded = True
                        continue
                    is_broad = handler.type is None or bool(
                        names & self._BROAD
                    )
                    if not is_broad or budget_shielded:
                        continue
                    if _always_leaves(handler.body):
                        continue
                    self._broad.append(
                        (ctx.rel, node_id, func, stmt, handler)
                    )
            if salvages:
                yield from self._silent_salvages(ctx, site)

    @staticmethod
    def _salvages(handler: ast.ExceptHandler) -> bool:
        return "BudgetExceeded" in _exception_names(
            handler.type
        ) and not _always_leaves(handler.body)

    def _silent_salvages(
        self, ctx: FileContext, site: FunctionSite
    ) -> Iterator[Finding]:
        func = site.node
        flag_names = self._observable_flags(func)
        for stmts, trys in _blocks(func.body):
            for stmt in stmts:
                if not isinstance(stmt, ast.Try):
                    continue
                exposed = bool(trys or stmt.finalbody)
                for handler in stmt.handlers:
                    if not self._salvages(handler):
                        continue
                    culprit = self._unmarked_exit(
                        handler, flag_names, exposed
                    )
                    if culprit is None:
                        continue
                    yield self.finding(
                        ctx,
                        culprit.lineno,
                        0,
                        func.name,
                        f"{func.name}() salvages BudgetExceeded (handler "
                        f"at line {handler.lineno}) without first marking "
                        f"degradation (e.g. meta['degraded'] = True) in "
                        f"the handler",
                    )

    def finalize(self) -> Iterator[Finding]:
        calls = self.project.calls
        reaching = calls.checkpoint_reaching()
        for rel, node_id, func, try_node, handler in self._broad:
            if not self._budget_region(node_id, func, try_node, reaching):
                continue
            yield self.finding(
                rel,
                handler.lineno,
                handler.col_offset,
                func.name,
                f"broad handler in {func.name}() guards a "
                f"budget-checkpointed region and may swallow "
                f"BudgetExceeded without re-raising",
            )

    def _budget_region(
        self,
        node_id: str,
        func: FuncDef,
        try_node: ast.Try,
        reaching: set[str],
    ) -> bool:
        first = try_node.body[0].lineno
        last = max(
            getattr(s, "end_lineno", s.lineno) or s.lineno
            for s in try_node.body
        )
        params = {
            a.arg
            for a in (*func.args.posonlyargs, *func.args.args,
                      *func.args.kwonlyargs)
        }
        for stmt in try_node.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    # Calling an injected callable (a bare parameter,
                    # e.g. ``solver(instance)``) is budget-opaque: any
                    # registered solver checkpoints.
                    if is_checkpoint_call(node) or (
                        isinstance(node.func, ast.Name)
                        and node.func.id in params
                    ):
                        return True
                elif isinstance(node, ast.Name) and node.id == "BudgetExceeded":
                    return True
        return any(
            edge.callee in reaching
            for edge in self.project.calls.calls_within(node_id, first, last)
        )

    def _unmarked_exit(
        self,
        handler: ast.ExceptHandler,
        flag_names: set[str],
        exposed: bool,
    ) -> ast.stmt | ast.ExceptHandler | None:
        """Where ``handler`` may leave before marking, or ``None``.

        ``exposed`` (the ``try`` has a ``finally:`` or an enclosing
        ``try``) makes any statement before the marking a way out.
        """
        for stmt in handler.body:
            if self._marks_degraded(stmt, flag_names):
                return None
            if exposed or any(
                isinstance(inner, (ast.Return, ast.Break, ast.Continue))
                for block, _ in _blocks([stmt])
                for inner in block
            ):
                return stmt
        return handler

    @staticmethod
    def _observable_flags(func: FuncDef) -> set[str]:
        """Local names whose value is *read* somewhere in the function."""
        return {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }

    @staticmethod
    def _marks_degraded(stmt: ast.stmt, flag_names: set[str]) -> bool:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return False
        targets = (
            stmt.targets
            if isinstance(stmt, ast.Assign)
            else [stmt.target]
        )
        for target in targets:
            if isinstance(target, ast.Subscript):
                key = target.slice
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "degraded"
                ):
                    return True
            elif isinstance(target, ast.Attribute):
                return True
            elif isinstance(target, ast.Name) and target.id in flag_names:
                return True
        return False


# ----------------------------------------------------------------------
# REP107 -- set-iteration order must not reach order-sensitive sinks
# ----------------------------------------------------------------------
class SetOrderDeterminismRule(Rule):
    """No iterating a set into an order-sensitive sink without ``sorted``.

    Set iteration order depends on insertion history and hash seeds, so
    a ``for x in some_set`` whose body appends to a list, pushes onto a
    heap, yields, or writes to a stream makes output order
    run-dependent -- the classic silent killer of the bit-identical
    reproduction contract.  The rule infers set-typed locals
    (literals, comprehensions, ``set()``/``frozenset()`` calls, set
    operators and methods, ``set[...]`` annotations), treats
    ``sorted()`` as the laundering point, and flags both tainted
    ``for`` loops containing a sink and direct materialisations
    (``list(s)``/``tuple(s)``/comprehensions over ``s``) that are not
    immediately consumed by an order-insensitive reducer
    (``sorted``/``sum``/``len``/``min``/``max``/``any``/``all``/...).
    """

    id = "REP107"
    severity = "error"
    title = "set iteration order flows into an order-sensitive sink"
    hint = (
        "iterate 'for x in sorted(s)' (or materialise with sorted(s)); "
        "if order is provably irrelevant, suppress with a "
        "justification: '# reprolint: disable=REP107 -- <reason>'"
    )

    _SET_CALLS = frozenset({"set", "frozenset"})
    _SET_METHODS = frozenset(
        {"union", "intersection", "difference", "symmetric_difference"}
    )
    _SINK_METHODS = frozenset(
        {"append", "appendleft", "write", "writelines", "put",
         "put_nowait", "add_row", "emit", "send"}
    )
    _SINK_CALLS = frozenset({"heappush", "heappush_max", "print"})
    #: Consumers for which iteration order is immaterial.
    _ORDER_FREE = frozenset(
        {"sorted", "set", "frozenset", "sum", "len", "min", "max", "any",
         "all", "Counter", "dict", "enumerate"}
    )

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for site in ctx.functions:
            func, qual = site.node, site.qualname
            set_vars = self._set_typed_names(site)
            parents: dict[ast.AST, ast.AST] = {}
            for node in site.owned:
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    if not self._is_set_valued(node.iter, set_vars):
                        continue
                    sink = self._first_sink(node)
                    if sink is None:
                        continue
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        qual,
                        f"{qual}() iterates a set in nondeterministic "
                        f"order into an order-sensitive sink "
                        f"(line {sink.lineno})",
                    )
                elif isinstance(node, ast.Call):
                    name = call_name(node)
                    if (
                        name in ("list", "tuple")
                        and isinstance(node.func, ast.Name)
                        and node.args
                        and self._is_set_valued(node.args[0], set_vars)
                        and not self._order_free_context(node, func, parents)
                    ):
                        yield self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            qual,
                            f"{qual}() materialises a set into an "
                            f"ordered {name} without sorted()",
                        )
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                    if any(
                        self._is_set_valued(g.iter, set_vars)
                        for g in node.generators
                    ) and not self._order_free_context(node, func, parents):
                        yield self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            qual,
                            f"{qual}() builds an ordered sequence by "
                            f"iterating a set without sorted()",
                        )

    @classmethod
    def _set_typed_names(cls, site: FunctionSite) -> set[str]:
        names: set[str] = set()
        args = site.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if cls._is_set_annotation(arg.annotation):
                names.add(arg.arg)
        changed = True
        while changed:
            changed = False
            for node in site.owned:
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target = node.target
                    if cls._is_set_annotation(node.annotation) and isinstance(
                        target, ast.Name
                    ):
                        if target.id not in names:
                            names.add(target.id)
                            changed = True
                    value = node.value
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
                ):
                    target, value = node.target, node.value
                if (
                    isinstance(target, ast.Name)
                    and value is not None
                    and cls._set_valued_expr(value, names)
                    and target.id not in names
                ):
                    names.add(target.id)
                    changed = True
        return names

    @classmethod
    def _is_set_annotation(cls, ann: ast.expr | None) -> bool:
        if ann is None:
            return False
        text = ann.value if (
            isinstance(ann, ast.Constant) and isinstance(ann.value, str)
        ) else ""
        if not text:
            base = ann.value if isinstance(ann, ast.Subscript) else ann
            text = dotted_name(base) if isinstance(
                base, (ast.Name, ast.Attribute)
            ) else ""
        text = text.split("[", 1)[0].rsplit(".", 1)[-1]
        return text in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                        "MutableSet")

    @classmethod
    def _set_valued_expr(cls, expr: ast.expr, names: set[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in names
        if isinstance(expr, ast.Call):
            if call_name(expr) in cls._SET_CALLS:
                return True
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr in cls._SET_METHODS
                and cls._set_valued_expr(expr.func.value, names)
            ):
                return True
            return False
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return cls._set_valued_expr(
                expr.left, names
            ) or cls._set_valued_expr(expr.right, names)
        return False

    @classmethod
    def _is_set_valued(cls, expr: ast.expr, names: set[str]) -> bool:
        return cls._set_valued_expr(expr, names)

    @classmethod
    def _first_sink(
        cls, loop: ast.For | ast.AsyncFor
    ) -> ast.AST | None:
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return node
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in cls._SINK_METHODS
                ):
                    return node
                if call_name(node) in cls._SINK_CALLS:
                    return node
        return None

    @classmethod
    def _order_free_context(
        cls, node: ast.AST, func: FuncDef, parents: dict[ast.AST, ast.AST]
    ) -> bool:
        if not parents:
            # The function's parent links, mapped on its first candidate.
            for parent in ast.walk(func):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
        parent = parents.get(node)
        if isinstance(parent, ast.Call) and node in (
            *parent.args,
            *[k.value for k in parent.keywords],
        ):
            return call_name(parent) in cls._ORDER_FREE
        # ``for x in (g for ...)`` over a generator is only a hazard if
        # the loop has a sink; the loop check handles that case.
        if isinstance(parent, (ast.For, ast.AsyncFor)) and isinstance(
            node, ast.GeneratorExp
        ):
            return True
        return False


# ----------------------------------------------------------------------
# REP108 -- serve state-machine completeness
# ----------------------------------------------------------------------
class ServeStateMachineRule(Rule):
    """``ServeResult`` completeness and mutation-record immutability.

    Three serve-package invariants:

    * every ``ServeResult(...)`` construction passes ``staleness=``
      explicitly -- the field is the consistency contract of the online
      engine and must never ride a default;
    * every function annotated ``-> ServeResult`` hands one back on
      **all** paths to a normal return: its body ends in a ``return``
      or ``raise`` (at top level, or in both arms of an ``if``/
      ``else``), and every ``return`` returns a call -- a
      ``ServeResult(...)`` or a delegate, which is annotated and
      checked itself.  An early ``return None`` arm or a fall-through
      path is caught even when the happy path is fine.  A ``return``
      under a ``try`` with a ``finally:`` is not credited: the finally
      runs after it and may return over it;
    * frozen mutation records (``CustomerArrive`` & co.) are never
      attribute-assigned after construction and ``object.__setattr__``
      never appears in serve code -- replaying a mutated record breaks
      the re-solve log.
    """

    id = "REP108"
    severity = "error"
    title = "serve state-machine violation"
    hint = (
        "construct ServeResult(staleness=...) on every path; build a "
        "new mutation record instead of assigning to a frozen one; "
        "suppress with a justification: "
        "'# reprolint: disable=REP108 -- <reason>'"
    )

    PREFIX = "serve/"
    _MUTATION_TYPES = frozenset(
        {"CustomerArrive", "CustomerDepart", "CapacityChange", "EdgeRetime",
         "Mutation"}
    )
    _RESULT = "ServeResult"

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.rel.startswith(self.PREFIX):
            return
        for site in ctx.functions:
            func, qual = site.node, site.qualname
            if self._returns_serveresult(func) and not self._completes(func):
                yield self.finding(
                    ctx,
                    func.lineno,
                    func.col_offset,
                    func.name,
                    f"{func.name}() is annotated -> ServeResult but some "
                    f"path reaches a normal return without constructing "
                    f"one",
                )
            frozen_vars = self._frozen_locals(site)
            for node in site.owned:
                if isinstance(node, ast.Call):
                    if call_name(node) == self._RESULT:
                        kwargs = {k.arg for k in node.keywords}
                        if "staleness" not in kwargs and None not in kwargs:
                            yield self.finding(
                                ctx,
                                node.lineno,
                                node.col_offset,
                                qual,
                                f"{qual}() constructs ServeResult without "
                                f"an explicit staleness= keyword",
                            )
                    elif dotted_name(node.func) == "object.__setattr__":
                        yield self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            qual,
                            f"{qual}() uses object.__setattr__ -- frozen "
                            f"records must not be mutated after "
                            f"construction",
                        )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in frozen_vars
                        ):
                            yield self.finding(
                                ctx,
                                target.lineno,
                                target.col_offset,
                                qual,
                                f"{qual}() assigns "
                                f"{target.value.id}.{target.attr} on a "
                                f"frozen mutation record",
                            )

    def _returns_serveresult(self, func: FuncDef) -> bool:
        ann = func.returns
        if ann is None:
            return False
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            return ann.value.split("[", 1)[0].strip() == self._RESULT
        return _final_name(ann) == self._RESULT

    def _frozen_locals(self, site: FunctionSite) -> set[str]:
        frozen: set[str] = set()
        args = site.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            ann = arg.annotation
            name = ""
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                name = ann.value.split("[", 1)[0].strip().rsplit(".", 1)[-1]
            elif ann is not None:
                name = _final_name(
                    ann.value if isinstance(ann, ast.Subscript) else ann
                )
            if name in self._MUTATION_TYPES:
                frozen.add(arg.arg)
        for node in site.owned:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and call_name(node.value) in self._MUTATION_TYPES
            ):
                frozen.add(node.targets[0].id)
        return frozen

    @staticmethod
    def _completes(func: FuncDef) -> bool:
        """Whether every normal return of ``func`` returns a call."""
        if not _always_leaves(func.body, returns=True):
            return False
        return not any(
            isinstance(stmt, ast.Return)
            and (
                not isinstance(stmt.value, ast.Call)
                or any(t.finalbody for t in trys)
            )
            for stmts, trys in _blocks(func.body)
            for stmt in stmts
        )


#: The path tier, appended to the main registry by
#: :func:`repro.analysis.rules.default_rules` (lazy import -- REP102).
PATH_RULES: tuple[type[Rule], ...] = (
    MustReleaseResourceRule,
    BudgetExceptionSafetyRule,
    SetOrderDeterminismRule,
    ServeStateMachineRule,
)
