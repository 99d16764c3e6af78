"""Name-resolution call graph over one package tree.

Static, conservative, stdlib-only.  Nodes are function definitions
(module functions, methods, nested functions), identified as
``module.Qual.name`` (e.g. ``network.kernels.DijkstraWorkspace.run``).
Edges are direct calls resolved by name:

* module-level functions, through the module's import bindings and
  re-export chains (:meth:`~repro.analysis.graphs.imports.ImportGraph.resolve_symbol`);
* methods, through a light local type inference: ``self`` (including
  base classes), parameter annotations (plain, string, ``X | None``,
  ``Optional[X]``), ``x = ClassName(...)`` constructor assignments, and
  return annotations of already-resolved calls
  (``ws = workspace_for(net)`` types ``ws`` when ``workspace_for`` is
  annotated ``-> DijkstraWorkspace``);
* property getters, for attribute *loads* on a typed base
  (``network.csr_lists`` creates an edge into the ``csr_lists``
  property, which is how cache-mutating getters become reachable);
* registry edges: a virtual ``<SOLVERS>`` caller with edges to every
  value of the top-level ``SOLVERS`` dict and to every
  ``@solver_api``-decorated function (the ``MethodSpec`` registry),
  modelling the dynamic ``SOLVERS[method](...)`` dispatch.

Unresolvable calls (dynamic dispatch, out-of-tree callees) produce no
edge -- the graph under-approximates, and every rule built on it is
worded accordingly (REP101 additionally honours a *lexical* checkpoint
call, so an unresolved ``checkpoint()`` still counts).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.analysis.graphs.functions import (
    FuncDef,
    FunctionSite,
    checkpoint_callers,
    dotted_name,
)
from repro.analysis.graphs.imports import ImportGraph, SourceModule, module_name

#: Virtual caller node modelling ``SOLVERS[method](...)`` dispatch.
SOLVERS_NODE = "<SOLVERS>"


def _annotation_names(annotation: ast.expr | None) -> list[str]:
    """Candidate class names inside an annotation expression.

    Handles plain names, dotted names, string annotations, ``X | None``
    unions, ``Optional[X]``, and the first argument of other subscripts.
    """
    if annotation is None:
        return []
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return []
    names: list[str] = []
    stack: list[ast.expr] = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted:
                names.append(dotted)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            stack.extend([node.left, node.right])
        elif isinstance(node, ast.Subscript):
            base = node.value
            base_name = dotted_name(base) if not isinstance(base, ast.Name) else base.id
            if base_name.rsplit(".", 1)[-1] == "Optional":
                stack.append(node.slice)
            # Other generics (list[Network], ...) are containers, not
            # the instance type itself -- skip.
    return [n for n in names if n not in ("None", "NoneType")]


@dataclass
class FunctionInfo:
    """One function definition node in the graph."""

    node_id: str
    module: str
    qualname: str
    line: int
    #: ``module.Class`` key when this is a method, else ``""``.
    class_key: str
    is_property: bool
    is_public: bool
    #: parameter name -> resolved ``module.Class`` key (annotation-based).
    param_types: dict[str, str] = field(default_factory=dict)
    #: resolved ``module.Class`` return type key, if annotated.
    return_type: str = ""
    #: body contains a lexical ``*checkpoint*`` call.
    direct_checkpoint: bool = False
    #: decorated with ``@solver_api`` (MethodSpec registry entry).
    solver_api: bool = False


@dataclass
class ClassInfo:
    """One class definition: methods, properties, base-class keys."""

    class_key: str
    module: str
    name: str
    line: int
    methods: dict[str, str] = field(default_factory=dict)
    properties: dict[str, str] = field(default_factory=dict)
    bases: list[str] = field(default_factory=list)
    #: instance attribute name -> class key (from class-body annotations
    #: and ``self.x = <typed>`` assignments in ``__init__``).
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """A resolved call (or property access) site.

    ``kind`` is ``"call"``, ``"property"`` (attribute load of a property
    getter), or ``"registry"`` (virtual dispatch edge).
    """

    caller: str
    callee: str
    line: int
    kind: str = "call"


class CallGraph:
    """Whole-program call graph built over an :class:`ImportGraph`."""

    def __init__(
        self, sources: Sequence[SourceModule], imports: ImportGraph
    ) -> None:
        self.imports = imports
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.edges: list[CallEdge] = []
        #: function node id -> its function-index entry (AST, owned nodes).
        self._sites: dict[str, FunctionSite] = {}
        every_site = [site for source in sources for site in source.functions]
        self._site_of: dict[ast.AST, FunctionSite] = {
            site.node: site for site in every_site
        }
        _own, self._checkpointing = checkpoint_callers(every_site)
        #: module -> name -> node id of module-level functions.
        self._module_funcs: dict[str, dict[str, str]] = {}
        #: module -> name -> class key of module-level classes.
        self._module_classes: dict[str, dict[str, str]] = {}
        self._out: dict[str, set[str]] | None = None
        trees = {module_name(s.rel): s.tree for s in sources}
        for module, tree in trees.items():
            self._index_module(module, tree)
        self._collect_attr_types()
        #: module -> global name -> class key (module-level AnnAssign).
        self._global_types: dict[str, dict[str, str]] = {}
        for module, tree in trees.items():
            table: dict[str, str] = {}
            for node in tree.body:
                if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    key = self._annotation_class(module, node.annotation)
                    if key:
                        table[node.target.id] = key
            self._global_types[module] = table
        # Signature typing for every function FIRST, so cross-module
        # return-annotation inference does not depend on module order.
        for node_id, site in self._sites.items():
            self._type_signature(self.functions[node_id], site.node)
        for node_id, site in self._sites.items():
            self._resolve_function(self.functions[node_id], site.node)
        self._add_registry_edges(trees)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index_module(self, module: str, tree: ast.Module) -> None:
        self._module_funcs.setdefault(module, {})
        self._module_classes.setdefault(module, {})
        self._index_body(module, tree.body, prefix="", class_info=None)

    def _index_body(
        self,
        module: str,
        body: Iterable[ast.stmt],
        prefix: str,
        class_info: ClassInfo | None,
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, node, prefix, class_info)
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}{node.name}"
                key = f"{module}.{qual}" if module else qual
                info = ClassInfo(
                    class_key=key,
                    module=module,
                    name=qual,
                    line=node.lineno,
                    bases=[b for b in (dotted_name(base) for base in node.bases) if b],
                )
                self.classes[key] = info
                if not prefix:
                    self._module_classes[module][node.name] = key
                self._index_body(
                    module, node.body, prefix=f"{qual}.", class_info=info
                )
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                # Conditionally-defined module-level functions still count.
                sub: list[ast.stmt] = list(node.body)
                if isinstance(node, ast.Try):
                    for handler in node.handlers:
                        sub.extend(handler.body)
                    sub.extend(node.finalbody)
                sub.extend(getattr(node, "orelse", []))
                self._index_body(module, sub, prefix, class_info)

    def _index_function(
        self,
        module: str,
        node: FuncDef,
        prefix: str,
        class_info: ClassInfo | None,
    ) -> None:
        qual = f"{prefix}{node.name}"
        node_id = f"{module}.{qual}" if module else qual
        is_property = False
        is_solver_api = False
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = dotted_name(target)
            simple = name.rsplit(".", 1)[-1]
            if simple in ("property", "cached_property"):
                is_property = True
            if simple == "solver_api":
                is_solver_api = True
        info = FunctionInfo(
            node_id=node_id,
            module=module,
            qualname=qual,
            line=node.lineno,
            class_key=class_info.class_key if class_info else "",
            is_property=is_property,
            is_public=not node.name.startswith("_"),
            direct_checkpoint=node in self._checkpointing,
            solver_api=is_solver_api,
        )
        self.functions[node_id] = info
        self._sites[node_id] = self._site_of[node]
        if class_info is not None and prefix == f"{class_info.name}.":
            class_info.methods[node.name] = node_id
            if is_property:
                class_info.properties[node.name] = node_id
        elif not prefix:
            self._module_funcs[module][node.name] = node_id
        # Nested defs are indexed too (their calls get attributed to
        # them), but are not name-resolvable from the outside.
        self._index_body(module, node.body, prefix=f"{qual}.", class_info=None)

    # ------------------------------------------------------------------
    # Resolution helpers
    # ------------------------------------------------------------------
    def lookup_function(self, module: str, name: str) -> str | None:
        """Resolve ``name`` in ``module`` to a function node id."""
        direct = self._module_funcs.get(module, {}).get(name)
        if direct is not None:
            return direct
        resolved = self.imports.resolve_symbol(module, name)
        if resolved is not None and resolved[0] == "def":
            return self._module_funcs.get(resolved[1], {}).get(resolved[2])
        return None

    def lookup_class(self, module: str, name: str) -> str | None:
        """Resolve ``name`` in ``module`` to a class key."""
        simple = name.rsplit(".", 1)[-1] if "." in name else name
        direct = self._module_classes.get(module, {}).get(name)
        if direct is not None:
            return direct
        resolved = self.imports.resolve_symbol(module, simple)
        if resolved is not None and resolved[0] == "def":
            return self._module_classes.get(resolved[1], {}).get(resolved[2])
        return None

    def _class_attr(self, class_key: str, attr: str) -> str | None:
        """A method/property node id on ``class_key`` or its bases."""
        seen: set[str] = set()
        stack = [class_key]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            info = self.classes.get(key)
            if info is None:
                continue
            node_id = info.methods.get(attr)
            if node_id is not None:
                return node_id
            for base in info.bases:
                base_key = self.lookup_class(info.module, base)
                if base_key is not None:
                    stack.append(base_key)
        return None

    def _is_property_node(self, node_id: str) -> bool:
        info = self.functions.get(node_id)
        return info is not None and info.is_property

    def _annotation_class(self, module: str, annotation: ast.expr | None) -> str:
        for name in _annotation_names(annotation):
            key = self.lookup_class(module, name)
            if key is not None:
                return key
        return ""

    def _collect_attr_types(self) -> None:
        """Type instance attributes from class-body annotations and
        ``self.x = <param>``/``self.x = ClassName(...)`` in ``__init__``."""
        for info in self.classes.values():
            init_id = info.methods.get("__init__")
            if init_id is None:
                continue
            func = self._sites[init_id].node
            types: dict[str, str] = {"self": info.class_key}
            for arg in (*func.args.posonlyargs, *func.args.args,
                        *func.args.kwonlyargs):
                key = self._annotation_class(info.module, arg.annotation)
                if key:
                    types[arg.arg] = key
            for node in ast.walk(func):
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if isinstance(node, ast.AnnAssign):
                    key = self._annotation_class(info.module, node.annotation)
                elif isinstance(value, ast.Name):
                    key = types.get(value.id, "")
                elif isinstance(value, ast.Call):
                    inferred = self._callee_of(info.module, value, types)
                    key = (
                        inferred[1]
                        if inferred is not None and inferred[0] == "class"
                        else ""
                    )
                else:
                    key = ""
                if key:
                    info.attr_types.setdefault(target.attr, key)

    # ------------------------------------------------------------------
    # Per-function resolution
    # ------------------------------------------------------------------
    def _type_signature(
        self, info: FunctionInfo, func: FuncDef
    ) -> None:
        module = info.module
        args = func.args
        all_args = [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        ]
        for index, arg in enumerate(all_args):
            if index == 0 and arg.arg in ("self", "cls") and info.class_key:
                continue
            info.param_types[arg.arg] = self._annotation_class(
                module, arg.annotation
            )
        info.return_type = self._annotation_class(module, func.returns)

    def _resolve_function(
        self, info: FunctionInfo, func: FuncDef
    ) -> None:
        module = info.module
        types: dict[str, str] = {}
        args = func.args
        all_args = [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        ]
        for index, arg in enumerate(all_args):
            if index == 0 and arg.arg in ("self", "cls") and info.class_key:
                types[arg.arg] = info.class_key
                continue
            key = info.param_types.get(arg.arg, "")
            if key:
                types[arg.arg] = key

        # Single forward pass in source order (pre-order, left to right):
        # assignments refine `types`, every call / property access
        # becomes an edge.  Nested defs are resolved on their own (they
        # appear in self._sites), so don't descend.
        stack: list[ast.AST] = list(reversed(func.body))
        ordered: list[ast.AST] = []
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            ordered.append(node)
            stack.extend(reversed(list(ast.iter_child_nodes(node))))
        for node in ordered:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self._infer_expr_type(module, node.value, types)
                    if inferred:
                        types[target.id] = inferred
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                key = self._annotation_class(module, node.annotation)
                if key:
                    types[node.target.id] = key
            if isinstance(node, ast.Call):
                self._resolve_call(info, node, types)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                self._resolve_property_access(info, node, types)

    def _infer_expr_type(
        self, module: str, value: ast.expr, types: dict[str, str]
    ) -> str:
        """Static type of an assigned expression, as a class key."""
        if isinstance(value, ast.IfExp):
            return self._infer_expr_type(
                module, value.body, types
            ) or self._infer_expr_type(module, value.orelse, types)
        if isinstance(value, ast.Name):
            local = types.get(value.id, "")
            if local:
                return local
            return self._global_types.get(module, {}).get(value.id, "")
        if not isinstance(value, ast.Call):
            return ""
        target = self._callee_of(module, value, types)
        if target is None:
            return ""
        kind, node_id = target
        if kind == "class":
            return node_id
        if kind == "func":
            return self.functions[node_id].return_type
        return ""

    def _callee_of(
        self, module: str, call: ast.Call, types: dict[str, str]
    ) -> tuple[str, str] | None:
        """Resolve a call expression to ``("func", node_id)`` or
        ``("class", class_key)`` (constructor), or ``None``."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in types:
                return None  # calling a local instance -- dynamic
            node_id = self.lookup_function(module, name)
            if node_id is not None:
                return ("func", node_id)
            class_key = self.lookup_class(module, name)
            if class_key is not None:
                return ("class", class_key)
            return None
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        attr = func.attr
        # self.method() / typed_param.method()
        if isinstance(base, ast.Name) and base.id in types:
            node_id = self._class_attr(types[base.id], attr)
            if node_id is not None:
                return ("func", node_id)
            return None
        # chain through a property: self.network.method()
        base_type = self._chain_type(module, base, types)
        if base_type:
            node_id = self._class_attr(base_type, attr)
            if node_id is not None:
                return ("func", node_id)
        # module attr: budget.checkpoint(), kernels.workspace_for()
        dotted = dotted_name(func)
        if dotted:
            owner, _, last = dotted.rpartition(".")
            target_module = self._module_of_chain(module, owner)
            if target_module is not None:
                node_id = self._module_funcs.get(target_module, {}).get(last)
                if node_id is not None:
                    return ("func", node_id)
                class_key = self._module_classes.get(target_module, {}).get(last)
                if class_key is not None:
                    return ("class", class_key)
        return None

    def _chain_type(
        self, module: str, expr: ast.expr, types: dict[str, str]
    ) -> str:
        """Type of a name/attribute chain, following typed attributes."""
        if isinstance(expr, ast.Name):
            return types.get(expr.id, "")
        if isinstance(expr, ast.Attribute):
            base_type = self._chain_type(module, expr.value, types)
            if not base_type:
                return ""
            node_id = self._class_attr(base_type, expr.attr)
            if node_id is not None:
                return self.functions[node_id].return_type
            info = self.classes.get(base_type)
            if info is not None:
                return info.attr_types.get(expr.attr, "")
            return ""
        return ""

    def _module_of_chain(self, module: str, dotted: str) -> str | None:
        """Resolve ``a.b`` to an internal module via import bindings."""
        if not dotted:
            return None
        first, _, rest = dotted.partition(".")
        binding = self.imports.binding_of(module, first)
        if binding is None or binding.kind != "module":
            return None
        current = binding.module
        while rest:
            head, _, rest = rest.partition(".")
            child = f"{current}.{head}" if current else head
            if child in self.imports.modules:
                current = child
            else:
                return None
        return current

    def _resolve_call(
        self, info: FunctionInfo, call: ast.Call, types: dict[str, str]
    ) -> None:
        target = self._callee_of(info.module, call, types)
        if target is None:
            return
        kind, node_id = target
        if kind == "class":
            ctor = self._class_attr(node_id, "__init__")
            if ctor is None:
                return
            callee_id = ctor
        else:
            callee_id = node_id
        self.edges.append(CallEdge(info.node_id, callee_id, call.lineno))
        self._out = None

    def _resolve_property_access(
        self, info: FunctionInfo, node: ast.Attribute, types: dict[str, str]
    ) -> None:
        base_type = self._chain_type(info.module, node.value, types)
        if not base_type:
            return
        target = self._class_attr(base_type, node.attr)
        if target is None or not self._is_property_node(target):
            return
        self.edges.append(
            CallEdge(info.node_id, target, node.lineno, kind="property")
        )
        self._out = None

    # ------------------------------------------------------------------
    # Registry edges
    # ------------------------------------------------------------------
    def _add_registry_edges(self, trees: dict[str, ast.Module]) -> None:
        root_tree = trees.get("")
        targets: set[str] = set()
        if root_tree is not None:
            for node in ast.walk(root_tree):
                value: ast.expr | None = None
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "SOLVERS"
                ):
                    value = node.value
                elif (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == "SOLVERS"
                ):
                    value = node.value
                if not isinstance(value, ast.Dict):
                    continue
                for entry in value.values:
                    dotted = dotted_name(entry)
                    if not dotted:
                        continue
                    node_id = self.lookup_function("", dotted.rsplit(".", 1)[-1])
                    if node_id is not None:
                        targets.add(node_id)
        for info in self.functions.values():
            if info.solver_api:
                targets.add(info.node_id)
        for node_id in sorted(targets):
            self.edges.append(
                CallEdge(
                    caller=SOLVERS_NODE,
                    callee=node_id,
                    line=0,
                    kind="registry",
                )
            )
        self._out = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def function_site(self, node_id: str) -> FunctionSite | None:
        """The function-index entry of a function node (AST, owned nodes)."""
        return self._sites.get(node_id)

    def out_edges(self) -> dict[str, set[str]]:
        """Adjacency ``caller -> {callee}`` (cached)."""
        if self._out is None:
            out: dict[str, set[str]] = {}
            for edge in self.edges:
                out.setdefault(edge.caller, set()).add(edge.callee)
            self._out = out
        return self._out

    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """Transitive closure of callees from ``roots`` (roots included)."""
        out = self.out_edges()
        seen: set[str] = set()
        stack = [r for r in roots]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(out.get(node, ()))
        return seen

    def checkpoint_reaching(self) -> set[str]:
        """Function nodes from which some call path hits a checkpoint.

        A node qualifies if its own body contains a lexical
        ``*checkpoint*`` call or any resolved callee does,
        transitively.
        """
        reaching = {
            node_id
            for node_id, info in self.functions.items()
            if info.direct_checkpoint
        }
        # Reverse propagation to fixpoint.
        incoming: dict[str, set[str]] = {}
        for edge in self.edges:
            incoming.setdefault(edge.callee, set()).add(edge.caller)
        stack = sorted(reaching)
        while stack:
            node = stack.pop()
            for caller in incoming.get(node, ()):
                if caller not in reaching and caller in self.functions:
                    reaching.add(caller)
                    stack.append(caller)
        return reaching

    def calls_within(
        self, node_id: str, first_line: int, last_line: int
    ) -> list[CallEdge]:
        """Resolved edges from ``node_id`` whose site is in a line range."""
        return [
            e
            for e in self.edges
            if e.caller == node_id and first_line <= e.line <= last_line
        ]

    def path_between(self, src: str, dst: str) -> list[str]:
        """One shortest call path from ``src`` to ``dst`` (BFS), or []."""
        if src == dst:
            return [src]
        out = self.out_edges()
        prev: dict[str, str] = {src: ""}
        queue = [src]
        while queue:
            node = queue.pop(0)
            for nxt in sorted(out.get(node, ())):
                if nxt in prev:
                    continue
                prev[nxt] = node
                if nxt == dst:
                    path = [dst]
                    while prev[path[-1]]:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                queue.append(nxt)
        return []

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        """JSON-ready node/edge form of the graph."""
        return {
            "kind": "calls",
            "functions": {
                node_id: {
                    "module": info.module,
                    "qualname": info.qualname,
                    "line": info.line,
                    "class": info.class_key,
                    "property": info.is_property,
                    "checkpoint": info.direct_checkpoint,
                }
                for node_id, info in sorted(self.functions.items())
            },
            "edges": [
                {
                    "caller": e.caller,
                    "callee": e.callee,
                    "line": e.line,
                    "kind": e.kind,
                }
                for e in sorted(
                    self.edges, key=lambda e: (e.caller, e.callee, e.line)
                )
            ],
        }

    def to_dot(self) -> str:
        """GraphViz DOT rendering (property edges dotted, registry bold)."""
        styles = {"call": "solid", "property": "dotted", "registry": "bold"}
        lines = ["digraph calls {", "  rankdir=LR;", "  node [shape=box];"]
        seen: set[tuple[str, str, str]] = set()
        for edge in sorted(self.edges, key=lambda e: (e.caller, e.callee)):
            key = (edge.caller, edge.callee, edge.kind)
            if key in seen:
                continue
            seen.add(key)
            style = styles.get(edge.kind, "solid")
            lines.append(
                f'  "{edge.caller}" -> "{edge.callee}" [style={style}];'
            )
        lines.append("}")
        return "\n".join(lines)


def build_call_graph(
    sources: Sequence[SourceModule], imports: ImportGraph
) -> CallGraph:
    """Build a :class:`CallGraph` over parsed sources."""
    return CallGraph(sources, imports)
