"""Conservative per-function effect inference over the call graph.

For every function in a :class:`~repro.analysis.graphs.callgraph.CallGraph`
this pass computes a set of :class:`Effect` records:

* ``attr-write`` -- ``x.attr = ...`` / ``x.attr += ...`` / ``del x.attr``;
* ``item-write`` -- ``x[i] = ...`` / ``del x[i]``;
* ``mutate-call`` -- ``x.append(...)`` and friends (a fixed vocabulary
  of well-known in-place mutators);
* ``global-write`` -- assignment to a ``global``-declared name;
* ``io`` -- ``open()`` / ``print()`` calls.

Each effect is anchored to a *root*: ``self``, ``param:<name>``,
``global:<name>`` (a module-level binding written through an attribute
or item), or ``local`` for objects created inside the function.  Local
roots are kept at the definition site (REP103 does not care about them,
but tests do) and **dropped during propagation** -- mutating an object
you created is not an effect visible to your caller.

Propagation walks call edges to a fixpoint: a callee's ``self``/param
effects are translated through the call site's argument binding
(:attr:`~repro.analysis.graphs.callgraph.CallEdge.binding`) into the
caller's own roots; unresolved calls contribute nothing (deliberate
under-approximation -- rules that consume the result say so).  The
translation is monotone over a finite lattice (root set x effect kinds
x functions), so the iteration terminates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.graphs.callgraph import CallEdge, CallGraph
from repro.analysis.graphs.functions import call_name

#: Method names treated as in-place container/array mutation.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "popleft",
        "appendleft",
        "clear",
        "update",
        "setdefault",
        "move_to_end",
        "sort",
        "reverse",
        "setflags",
        "fill",
        "resize",
        "put",
    }
)

#: Effect kinds that mutate state (everything but ``io``).
MUTATION_KINDS = frozenset(
    {"attr-write", "item-write", "mutate-call", "global-write"}
)


@dataclass(frozen=True)
class Effect:
    """One side effect of a function, anchored to a root object.

    ``origin`` is the function node id where the effect syntactically
    occurs (stable across propagation, so a rule can report the actual
    mutation site); ``line`` is the source line inside that function.
    """

    kind: str
    root: str
    detail: str
    origin: str
    line: int

    def rebased(self, root: str) -> Effect:
        """The same effect seen from a caller through ``root``."""
        return Effect(self.kind, root, self.detail, self.origin, self.line)


class EffectAnalysis:
    """Direct effect extraction plus interprocedural propagation."""

    def __init__(self, callgraph: CallGraph) -> None:
        self.callgraph = callgraph
        #: function node id -> effects syntactically in its body.
        self.direct: dict[str, frozenset[Effect]] = {}
        #: function node id -> effects including propagated callee effects.
        self.summary: dict[str, frozenset[Effect]] = {}
        self._current = ""
        self._extract_direct()
        self._propagate()

    # ------------------------------------------------------------------
    # Direct extraction
    # ------------------------------------------------------------------
    def _root_of(self, expr: ast.expr, params: set[str],
                 globals_declared: set[str]) -> tuple[str, str]:
        """``(root, detail)`` of the base of a write-target chain."""
        detail_parts: list[str] = []
        node = expr
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                detail_parts.append(node.attr)
            node = node.value
        detail = ".".join(reversed(detail_parts))
        if isinstance(node, ast.Name):
            name = node.id
            if name == "self":
                return "self", detail
            if name in params:
                return f"param:{name}", detail
            if name in globals_declared:
                return f"global:{name}", detail
            module = self.callgraph.functions[self._current].module
            if self.callgraph.imports.defines(module, name) or (
                self.callgraph.imports.binding_of(module, name) is not None
            ):
                return f"global:{name}", detail
            return "local", detail
        return "unknown", detail

    def _extract_direct(self) -> None:
        for node_id in self.callgraph.functions:
            site = self.callgraph.function_site(node_id)
            if site is None:
                continue
            func = site.node
            self._current = node_id
            params = {
                a.arg
                for a in (
                    *func.args.posonlyargs,
                    *func.args.args,
                    *func.args.kwonlyargs,
                )
            }
            params.discard("self")
            globals_declared: set[str] = set()
            effects: set[Effect] = set()
            for node in site.owned:
                if isinstance(node, ast.Global):
                    globals_declared.update(node.names)
            for node in site.owned:
                self._effects_of_node(
                    node, params, globals_declared, effects
                )
            self.direct[node_id] = frozenset(effects)

    def _effects_of_node(
        self,
        node: ast.AST,
        params: set[str],
        globals_declared: set[str],
        effects: set[Effect],
    ) -> None:
        node_id = self._current
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif isinstance(node, ast.For):
            targets = [node.target]
        for target in targets:
            for sub in self._flatten_targets(target):
                if isinstance(sub, ast.Attribute):
                    root, detail = self._root_of(
                        sub.value, params, globals_declared
                    )
                    effects.add(
                        Effect(
                            "attr-write",
                            root,
                            f"{detail + '.' if detail else ''}{sub.attr}",
                            node_id,
                            sub.lineno,
                        )
                    )
                elif isinstance(sub, ast.Subscript):
                    root, detail = self._root_of(
                        sub.value, params, globals_declared
                    )
                    effects.add(
                        Effect("item-write", root, detail, node_id, sub.lineno)
                    )
                elif isinstance(sub, ast.Name) and sub.id in globals_declared:
                    effects.add(
                        Effect(
                            "global-write", "global", sub.id, node_id,
                            sub.lineno,
                        )
                    )
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in ("open", "print") and isinstance(node.func, ast.Name):
                effects.add(
                    Effect("io", "unknown", name, node_id, node.lineno)
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and name in MUTATOR_METHODS
            ):
                root, detail = self._root_of(
                    node.func.value, params, globals_declared
                )
                effects.add(
                    Effect(
                        "mutate-call",
                        root,
                        f"{detail + '.' if detail else ''}{name}",
                        node_id,
                        node.lineno,
                    )
                )

    @staticmethod
    def _flatten_targets(target: ast.expr) -> list[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[ast.expr] = []
            for elt in target.elts:
                out.extend(EffectAnalysis._flatten_targets(elt))
            return out
        if isinstance(target, ast.Starred):
            return EffectAnalysis._flatten_targets(target.value)
        return [target]

    # ------------------------------------------------------------------
    # Interprocedural propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> None:
        summaries: dict[str, set[Effect]] = {
            node_id: set(effects) for node_id, effects in self.direct.items()
        }
        edges_by_caller: dict[str, list[CallEdge]] = {}
        for edge in self.callgraph.edges:
            if edge.caller in summaries and edge.callee in summaries:
                edges_by_caller.setdefault(edge.caller, []).append(edge)

        changed = True
        while changed:
            changed = False
            for caller, edges in edges_by_caller.items():
                current = summaries[caller]
                for edge in edges:
                    binding = dict(edge.binding)
                    for effect in summaries[edge.callee]:
                        mapped = self._map_effect(
                            effect, binding, caller
                        )
                        if mapped is not None and mapped not in current:
                            current.add(mapped)
                            changed = True
        self.summary = {
            node_id: frozenset(effects)
            for node_id, effects in summaries.items()
        }

    def _map_effect(
        self, effect: Effect, binding: dict[str, str], caller: str
    ) -> Effect | None:
        """Translate a callee effect into the caller's frame, or drop it."""
        root = effect.root
        if root.startswith("global:") or root == "global":
            return effect  # module state is visible from anywhere
        if root == "local":
            return None  # callee-private object
        if root == "unknown":
            return None
        name = root[len("param:"):] if root.startswith("param:") else root
        mapped = binding.get(name if root != "self" else "self")
        if mapped is None:
            return None
        caller_info = self.callgraph.functions[caller]
        site = self.callgraph.function_site(caller)
        caller_params: set[str] = set()
        if site is not None:
            args = site.node.args
            caller_params = {
                a.arg
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            }
        if mapped == "self" and caller_info.class_key:
            return effect.rebased("self")
        if mapped in caller_params and mapped != "self":
            return effect.rebased(f"param:{mapped}")
        module = caller_info.module
        if self.callgraph.imports.defines(module, mapped) or (
            self.callgraph.imports.binding_of(module, mapped) is not None
        ):
            return effect.rebased(f"global:{mapped}")
        return None  # caller-local object

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def mutations(
        self, node_id: str, direct_only: bool = False
    ) -> list[Effect]:
        """Mutation effects of one function, sorted by site."""
        table = self.direct if direct_only else self.summary
        return sorted(
            (
                e
                for e in table.get(node_id, frozenset())
                if e.kind in MUTATION_KINDS
            ),
            key=lambda e: (e.origin, e.line, e.kind, e.root, e.detail),
        )

    def rooted_in(
        self, node_id: str, root: str, direct_only: bool = False
    ) -> list[Effect]:
        """Mutation effects of ``node_id`` anchored at ``root``."""
        return [e for e in self.mutations(node_id, direct_only)
                if e.root == root]


def build_effects(callgraph: CallGraph) -> EffectAnalysis:
    """Run effect inference over a call graph."""
    return EffectAnalysis(callgraph)
