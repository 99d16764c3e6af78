"""The function index: every ``def`` of a file and the nodes it owns.

Most analyses reason one function at a time, over the function's *owned
nodes*: its AST without the insides of nested defs (a nested ``def``
node is owned by its parent, and is a function of its own).  The engine
indexes each parsed file once
(:attr:`repro.analysis.engine.FileContext.functions`, and
``FileContext.nodes`` for rules that scan the whole file), and the
rules, the call graph and effect inference all read that index
instead of re-walking the tree.

Also home to the call-name helpers and the lexical checkpoint test every
layer shares.  Stdlib-only, like the rest of ``analysis/``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.perfrules import FunctionLoops

__all__ = [
    "FuncDef",
    "FunctionSite",
    "call_name",
    "checkpoint_callers",
    "dotted_name",
    "index_functions",
    "is_checkpoint_call",
    "owned_nodes",
]

FuncDef = ast.FunctionDef | ast.AsyncFunctionDef


def dotted_name(node: ast.expr) -> str:
    """Render a Name/Attribute chain as ``a.b.c`` (empty if dynamic)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(node: ast.Call) -> str:
    """The final identifier of the called expression (``c`` in ``a.b.c()``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def is_checkpoint_call(node: ast.AST) -> bool:
    """The lexical budget-checkpoint test: a call named ``*checkpoint*``
    (REP101, REP106 and the call graph all use it)."""
    return isinstance(node, ast.Call) and "checkpoint" in call_name(node)


def checkpoint_callers(
    sites: list[FunctionSite],
) -> tuple[set[FuncDef], set[FuncDef]]:
    """Defs that call a budget checkpoint: ``(in_own_body, anywhere)``.

    *anywhere* adds every def enclosing one that calls it, i.e. the defs
    whose whole AST, nested defs included, holds a checkpoint call.
    """
    own = {
        site.node
        for site in sites
        if any(is_checkpoint_call(node) for node in site.owned)
    }
    anywhere = set(own)
    for site in sites:
        if site.node in own:
            anywhere.update(site.chain)
    return own, anywhere


def owned_nodes(scope: ast.AST) -> list[ast.AST]:
    """Every node under ``scope`` except the insides of defs nested in it.

    ``scope`` is a def, or a module for the nodes no def owns.
    Depth-first from the last child (a stack walk), so the order is
    fixed run to run; "the first loop" of a function means the first in
    this order.
    """
    return _walk(scope, "", (), None)


@dataclass(eq=False)
class FunctionSite:
    """One ``def`` of a file, with everything rules ask of it per run."""

    node: FuncDef
    #: ``Class.method`` / ``outer.inner``, relative to the module.
    qualname: str
    #: Enclosing defs, outermost first (classes are not in the chain).
    chain: tuple[FuncDef, ...]
    #: :func:`owned_nodes` of :attr:`node`.
    owned: list[ast.AST] = field(repr=False)
    #: The loop classification REP110 and REP111 share
    #: (:func:`repro.analysis.perfrules.local_loops`), made on first use.
    loops: FunctionLoops | None = field(default=None, repr=False)


def index_functions(tree: ast.Module) -> list[FunctionSite]:
    """Every def in ``tree``, nested ones included, in source order.

    One walk: each node is visited once, by the def that owns it.
    """
    sites: list[FunctionSite] = []
    _walk(tree, "", (), sites)
    sites.sort(key=lambda site: (site.node.lineno, site.node.col_offset))
    return sites


def _walk(
    scope: ast.AST,
    prefix: str,
    chain: tuple[FuncDef, ...],
    sites: list[FunctionSite] | None,
) -> list[ast.AST]:
    """The nodes ``scope`` owns (see :func:`owned_nodes`).

    With ``sites``, each def met is indexed there and its own nodes are
    walked in turn; ``prefix`` is the qualname prefix of ``scope``'s
    body and ``chain`` the defs enclosing it.
    """
    owned: list[ast.AST] = []
    todo = [(child, prefix) for child in ast.iter_child_nodes(scope)]
    while todo:
        node, qual_prefix = todo.pop()
        owned.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if sites is not None:
                qual = f"{qual_prefix}{node.name}"
                site = FunctionSite(node, qual, chain, [])
                sites.append(site)
                site.owned = _walk(node, f"{qual}.", (*chain, node), sites)
        else:
            if isinstance(node, ast.ClassDef):
                qual_prefix = f"{qual_prefix}{node.name}."
            todo.extend(
                (child, qual_prefix) for child in ast.iter_child_nodes(node)
            )
    return owned
