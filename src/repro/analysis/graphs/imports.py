"""Whole-program import graph over one package tree.

The graph records, per module, which other modules it imports, at which
line, and -- crucially for the layering contract (**REP102**) -- whether
the import is *eager* (executed at module import time) or *lazy*
(function-local, inside an ``if TYPE_CHECKING:`` block, or behind a
PEP 562 module ``__getattr__``).  Layering and cycle checks apply to
eager edges only: a lazy import cannot participate in an import-time
cycle and deliberately defers a dependency (the repo's established idiom
for cross-layer conveniences, e.g. the lazy ``profile`` export in
``repro/obs/__init__.py``).

Resolution handles the package's absolute-import style:

* ``import repro.network.graph`` / ``from repro.network import graph``
  resolve to the internal module ``network.graph`` (module names are
  kept relative to the linted root, matching finding paths);
* ``from repro.network.dijkstra import distance_matrix`` resolves to a
  *symbol* import: an edge to ``network.dijkstra`` carrying the name;
* re-exports chase through package ``__init__`` bindings
  (:meth:`ImportGraph.resolve_symbol`), including lazy PEP 562
  ``__getattr__`` forwards declared via a module-level name tuple
  (the ``_PROFILE_EXPORTS`` pattern);
* imports that do not resolve inside the tree are kept as *external*
  edges (``numpy``, stdlib, ...), which the layering rule uses to hold
  ``analysis/`` to its stdlib-only contract.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Protocol

from repro.analysis.graphs.functions import FunctionSite


class SourceModule(Protocol):
    """What the graph builders need to know about one parsed file."""

    rel: str
    tree: ast.Module
    #: :func:`~repro.analysis.graphs.functions.index_functions` of ``tree``.
    functions: list[FunctionSite]


def module_name(rel: str) -> str:
    """Dotted module name of a root-relative path (``""`` = root package).

    >>> module_name("network/graph.py")
    'network.graph'
    >>> module_name("obs/__init__.py")
    'obs'
    >>> module_name("__init__.py")
    ''
    """
    parts = rel[: -len(".py")].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved.

    ``dst`` is an internal module name when ``external`` is False, else
    the external module's dotted name as written.  ``names`` lists the
    symbols a ``from``-import binds (empty for plain ``import m``).
    """

    src: str
    dst: str
    line: int
    eager: bool
    external: bool
    names: tuple[str, ...] = ()


@dataclass(frozen=True)
class Binding:
    """What one module-level name is bound to by an import.

    ``kind`` is ``"module"`` (the name is a module object) or
    ``"symbol"`` (the name was from-imported out of ``module``).
    """

    kind: str
    module: str
    symbol: str = ""


#: Tagged resolution result of :meth:`ImportGraph.resolve_symbol`:
#: ``("mod", module, "")`` for a module object, ``("def", module, name)``
#: for a name the module binds locally.
Resolved = tuple[str, str, str]


class _ImportVisitor(ast.NodeVisitor):
    """Collect imports of one module with eager/lazy classification."""

    def __init__(self, graph: ImportGraph, module: str) -> None:
        self.graph = graph
        self.module = module
        self.depth = 0  # enclosing function defs
        self.type_checking = 0  # enclosing `if TYPE_CHECKING:` blocks
        self.in_getattr = False  # inside a module-level PEP 562 __getattr__

    @property
    def eager(self) -> bool:
        return self.depth == 0 and self.type_checking == 0

    # -- scope tracking -------------------------------------------------
    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        was_getattr = self.in_getattr
        if self.depth == 0 and node.name == "__getattr__":
            self.in_getattr = True
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1
        self.in_getattr = was_getattr

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking(node.test):
            self.type_checking += 1
            for child in node.body:
                self.visit(child)
            self.type_checking -= 1
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.graph._add_plain_import(
                self.module, alias, node.lineno, self.eager
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.graph._add_from_import(
            self.module, node, self.eager, self.in_getattr
        )


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by definition or assignment."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            names.add(elt.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


def _str_tuple_constants(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Module-level ``NAME = ("a", "b", ...)`` string-collection constants."""
    out: dict[str, tuple[str, ...]] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            values: list[str] = []
            ok = False
            for sub in ast.walk(node.value):
                if isinstance(sub, (ast.Tuple, ast.List, ast.Set)):
                    ok = True
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    values.append(sub.value)
            if ok and values:
                out[node.targets[0].id] = tuple(values)
    return out


class ImportGraph:
    """Import structure of every module under one root.

    Parameters
    ----------
    sources:
        Parsed modules (objects with ``rel`` and ``tree``), typically
        :class:`~repro.analysis.engine.FileContext` instances.
    package:
        Importable name of the root package (``"repro"``); absolute
        imports starting with it resolve into the tree.  Imports whose
        first segment directly matches a tree module (the style the test
        fixtures use) resolve without the prefix.
    """

    def __init__(
        self, sources: Sequence[SourceModule], package: str = "repro"
    ) -> None:
        self.package = package
        #: module name -> root-relative path
        self.modules: dict[str, str] = {}
        self.edges: list[ImportEdge] = []
        self._defs: dict[str, set[str]] = {}
        self._bindings: dict[str, dict[str, Binding]] = {}
        self._lazy_exports: dict[str, dict[str, Binding]] = {}
        trees: dict[str, ast.Module] = {}
        for source in sources:
            mod = module_name(source.rel)
            self.modules[mod] = source.rel
            trees[mod] = source.tree
        for mod, tree in trees.items():
            self._defs[mod] = _module_level_names(tree)
            self._bindings.setdefault(mod, {})
            self._lazy_exports.setdefault(mod, {})
            self._collect_getattr_exports(mod, tree)
            _ImportVisitor(self, mod).visit(tree)

    # ------------------------------------------------------------------
    # Construction helpers (called by the visitor)
    # ------------------------------------------------------------------
    def _internal(self, dotted: str) -> str | None:
        """Resolve an absolute dotted name to an internal module name."""
        candidates = [dotted]
        if dotted == self.package:
            candidates.insert(0, "")
        elif dotted.startswith(self.package + "."):
            candidates.insert(0, dotted[len(self.package) + 1 :])
        for candidate in candidates:
            if candidate in self.modules:
                return candidate
        return None

    def _add_plain_import(
        self, src: str, alias: ast.alias, line: int, eager: bool
    ) -> None:
        target = self._internal(alias.name)
        if target is None:
            self.edges.append(
                ImportEdge(src, alias.name, line, eager, external=True)
            )
            return
        self.edges.append(ImportEdge(src, target, line, eager, external=False))
        bound = alias.asname or alias.name.split(".")[0]
        if alias.asname is not None:
            bound_target = target
        else:
            # `import repro.network.graph` binds `repro` (the root).
            bound_target = self._internal(alias.name.split(".")[0]) or target
        self._bindings[src][bound] = Binding("module", bound_target)

    def _add_from_import(
        self, src: str, node: ast.ImportFrom, eager: bool, in_getattr: bool
    ) -> None:
        if node.level:
            # Relative import: resolve against the source package.
            base_parts = src.split(".") if src else []
            if self.modules.get(src, "").endswith("__init__.py") or src == "":
                anchor = base_parts
            else:
                anchor = base_parts[:-1]
            hops = node.level - 1
            anchor = anchor[: len(anchor) - hops] if hops else anchor
            dotted = ".".join(anchor + ([node.module] if node.module else []))
            target = dotted if dotted in self.modules else None
        else:
            dotted = node.module or ""
            target = self._internal(dotted)
        if target is None:
            self.edges.append(
                ImportEdge(
                    src,
                    dotted,
                    node.lineno,
                    eager,
                    external=True,
                    names=tuple(a.name for a in node.names),
                )
            )
            return
        submodule_names: list[str] = []
        symbol_names: list[str] = []
        for alias in node.names:
            bound = alias.asname or alias.name
            child = f"{target}.{alias.name}" if target else alias.name
            if child in self.modules:
                submodule_names.append(alias.name)
                binding = Binding("module", child)
            else:
                symbol_names.append(alias.name)
                binding = Binding("symbol", target, alias.name)
            if in_getattr:
                self._lazy_exports[src][bound] = binding
            else:
                self._bindings[src][bound] = binding
        # One edge per imported submodule, one for the symbol imports.
        for name in submodule_names:
            child = f"{target}.{name}" if target else name
            self.edges.append(
                ImportEdge(src, child, node.lineno, eager, external=False)
            )
        if symbol_names or not node.names:
            self.edges.append(
                ImportEdge(
                    src,
                    target,
                    node.lineno,
                    eager,
                    external=False,
                    names=tuple(symbol_names),
                )
            )

    def _collect_getattr_exports(self, mod: str, tree: ast.Module) -> None:
        """Resolve the PEP 562 lazy-export pattern.

        A module-level ``__getattr__`` that gates on membership in a
        module-level string tuple and forwards to an imported module::

            _EXPORTS = ("ProfileReport", ...)

            def __getattr__(name):
                if name in _EXPORTS:
                    from repro.obs import profile
                    return getattr(profile, name)

        exports each listed name as a lazy re-export of that module.
        """
        constants = _str_tuple_constants(tree)
        for node in tree.body:
            if not (
                isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            ):
                continue
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.If):
                    continue
                names = self._membership_names(stmt.test, constants)
                if not names:
                    continue
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.ImportFrom) and not sub.level:
                        target = self._internal(sub.module or "")
                        if target is None:
                            continue
                        for alias in sub.names:
                            child = (
                                f"{target}.{alias.name}"
                                if target
                                else alias.name
                            )
                            fwd = child if child in self.modules else target
                            for exported in names:
                                self._lazy_exports[mod].setdefault(
                                    exported,
                                    Binding(
                                        "symbol",
                                        fwd,
                                        exported,
                                    ),
                                )

    @staticmethod
    def _membership_names(
        test: ast.expr, constants: dict[str, tuple[str, ...]]
    ) -> tuple[str, ...]:
        """Names matched by an ``if name in <collection>:`` test."""
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.In)
        ):
            return ()
        comparator = test.comparators[0]
        if isinstance(comparator, ast.Name):
            return constants.get(comparator.id, ())
        names: list[str] = []
        for sub in ast.walk(comparator):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.append(sub.value)
        return tuple(names)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def internal_edges(self, eager_only: bool = False) -> list[ImportEdge]:
        """Edges into the tree (optionally restricted to eager ones)."""
        return [
            e
            for e in self.edges
            if not e.external and (e.eager or not eager_only)
        ]

    def external_imports(self, module: str) -> list[ImportEdge]:
        """External (out-of-tree) imports of ``module``."""
        return [e for e in self.edges if e.external and e.src == module]

    def defines(self, module: str, name: str) -> bool:
        """Whether ``module`` binds ``name`` by def/class/assignment."""
        return name in self._defs.get(module, ())

    def binding_of(self, module: str, name: str) -> Binding | None:
        """The import binding of ``name`` in ``module`` (eager or lazy)."""
        bound = self._bindings.get(module, {}).get(name)
        if bound is None:
            bound = self._lazy_exports.get(module, {}).get(name)
        return bound

    def resolve_symbol(
        self, module: str, name: str, _seen: frozenset[tuple[str, str]] = frozenset()
    ) -> Resolved | None:
        """Chase ``module.name`` through re-exports to its definition.

        Returns ``("def", def_module, name)`` when a module binds the
        name itself, ``("mod", module, "")`` when the name is a module,
        and ``None`` when the chain leaves the tree or does not resolve.
        """
        if (module, name) in _seen:
            return None
        seen = _seen | {(module, name)}
        binding = self._bindings.get(module, {}).get(name)
        if binding is None:
            binding = self._lazy_exports.get(module, {}).get(name)
        if binding is not None:
            if binding.kind == "module":
                return ("mod", binding.module, "")
            resolved = self.resolve_symbol(binding.module, binding.symbol, seen)
            if resolved is not None:
                return resolved
            if self.defines(binding.module, binding.symbol):
                return ("def", binding.module, binding.symbol)
            return None
        if self.defines(module, name):
            return ("def", module, name)
        child = f"{module}.{name}" if module else name
        if child in self.modules:
            return ("mod", child, "")
        return None

    def eager_cycles(self) -> list[list[str]]:
        """Strongly connected components of size > 1 over eager edges.

        Any such component is an import-time cycle waiting for the wrong
        import order; returns each cycle as a module list in a stable
        order, smallest module name first.
        """
        adjacency: dict[str, set[str]] = {m: set() for m in self.modules}
        for edge in self.internal_edges(eager_only=True):
            if edge.src != edge.dst:
                adjacency.setdefault(edge.src, set()).add(edge.dst)
        cycles: list[list[str]] = []
        for component in strongly_connected_components(
            sorted(adjacency), adjacency
        ):
            if len(component) > 1:
                pivot = component.index(min(component))
                cycles.append(component[pivot:] + component[:pivot])
        return sorted(cycles)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        """JSON-ready node/edge form of the graph."""
        return {
            "kind": "imports",
            "package": self.package,
            "modules": dict(sorted(self.modules.items())),
            "edges": [
                {
                    "src": e.src,
                    "dst": e.dst,
                    "line": e.line,
                    "eager": e.eager,
                    "external": e.external,
                    "names": list(e.names),
                }
                for e in sorted(
                    self.edges, key=lambda e: (e.src, e.dst, e.line)
                )
            ],
        }

    def to_dot(self, include_external: bool = False) -> str:
        """GraphViz DOT rendering (eager edges solid, lazy dashed)."""
        lines = ["digraph imports {", "  rankdir=BT;", '  node [shape=box];']
        seen: set[tuple[str, str, bool]] = set()
        for edge in sorted(self.edges, key=lambda e: (e.src, e.dst)):
            if edge.external and not include_external:
                continue
            key = (edge.src, edge.dst, edge.eager)
            if key in seen or edge.src == edge.dst:
                continue
            seen.add(key)
            style = "solid" if edge.eager else "dashed"
            src = edge.src or "<root>"
            dst = edge.dst or "<root>"
            lines.append(f'  "{src}" -> "{dst}" [style={style}];')
        lines.append("}")
        return "\n".join(lines)


def strongly_connected_components(
    nodes: Iterable[str], successors: Mapping[str, Iterable[str]]
) -> list[list[str]]:
    """Tarjan's strongly connected components, sinks first.

    Iterative (call graphs nest deeper than the recursion limit likes)
    and deterministic: roots are taken in the order of ``nodes`` and
    neighbours in sorted order.  Components come out in reverse
    topological order -- every component after the ones it reaches --
    each listing its members in the order they left the Tarjan stack.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []

    def enter(node: str) -> Iterator[str]:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return iter(sorted(successors.get(node, ())))

    for start in nodes:
        if start in index:
            continue
        work: list[tuple[str, Iterator[str]]] = [(start, enter(start))]
        while work:
            node, neighbors = work[-1]
            for nxt in neighbors:
                if nxt not in index:
                    work.append((nxt, enter(nxt)))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def build_import_graph(
    sources: Iterable[SourceModule], package: str = "repro"
) -> ImportGraph:
    """Build an :class:`ImportGraph` over parsed sources."""
    return ImportGraph(list(sources), package=package)
