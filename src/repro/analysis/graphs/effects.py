"""Direct mutation inference: what each function's own body writes.

For every function in a :class:`~repro.analysis.graphs.callgraph.CallGraph`
this pass records the in-place writes its body makes through ``self``
or a parameter, as :class:`Effect` records:

* ``attr-write`` -- ``x.attr = ...`` / ``x.attr += ...`` / ``del x.attr``;
* ``item-write`` -- ``x[i] = ...`` / ``del x[i]``;
* ``mutate-call`` -- ``x.append(...)`` and friends (a fixed vocabulary
  of well-known in-place mutators).

Each effect is anchored to a *root*: ``self`` or ``param:<name>``.
Writes to locals, module globals and call results are not recorded, and
neither are a callee's writes: REP103, the only reader, walks the call
graph itself and asks each reachable function for its own.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.graphs.callgraph import CallGraph
from repro.analysis.graphs.functions import FunctionSite

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


@dataclass(frozen=True)
class Effect:
    """One in-place write of a function, anchored to a root object.

    ``line`` is the write's source line; ``detail`` names the attribute
    chain or mutator under the root (``items.append``).
    """

    kind: str
    root: str
    detail: str
    line: int


class EffectAnalysis:
    """The direct mutation effects of every function in a call graph."""

    def __init__(self, callgraph: CallGraph) -> None:
        #: function node id -> mutations syntactically in its body.
        self.direct: dict[str, frozenset[Effect]] = {}
        for node_id in callgraph.functions:
            site = callgraph.function_site(node_id)
            if site is not None:
                self.direct[node_id] = _direct_effects(site)

    def mutations(self, node_id: str) -> list[Effect]:
        """Mutation effects of one function, sorted by site."""
        return sorted(
            self.direct.get(node_id, frozenset()),
            key=lambda e: (e.line, e.kind, e.root, e.detail),
        )


def _direct_effects(site: FunctionSite) -> frozenset[Effect]:
    """The writes ``site``'s own body makes through ``self`` or a
    parameter."""
    args = site.node.args
    params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    params.discard("self")
    effects: set[Effect] = set()

    def record(kind: str, base: ast.expr, leaf: str, line: int) -> None:
        parts = [leaf] if leaf else []
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            if isinstance(base, ast.Attribute):
                parts.append(base.attr)
            base = base.value
        if not isinstance(base, ast.Name):
            return
        if base.id == "self":
            root = "self"
        elif base.id in params:
            root = f"param:{base.id}"
        else:
            return
        effects.add(Effect(kind, root, ".".join(reversed(parts)), line))

    for node in site.owned:
        targets: list[ast.expr] = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [node.target]
        for target in targets:
            for sub in _flatten_targets(target):
                if isinstance(sub, ast.Attribute):
                    record("attr-write", sub.value, sub.attr, sub.lineno)
                elif isinstance(sub, ast.Subscript):
                    record("item-write", sub.value, "", sub.lineno)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            record(
                "mutate-call", node.func.value, node.func.attr, node.lineno
            )
    return frozenset(effects)


def _flatten_targets(target: ast.expr) -> list[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        return [sub for elt in target.elts for sub in _flatten_targets(elt)]
    if isinstance(target, ast.Starred):
        return _flatten_targets(target.value)
    return [target]


def build_effects(callgraph: CallGraph) -> EffectAnalysis:
    """Run effect inference over a call graph."""
    return EffectAnalysis(callgraph)
