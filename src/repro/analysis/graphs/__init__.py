"""Whole-program graphs for reprolint's cross-file rules.

This subpackage is the interprocedural layer under
:mod:`repro.analysis.engine`: the per-file function index
(:mod:`.functions`), an import graph (:mod:`.imports`), a
name-resolution call graph (:mod:`.callgraph`), conservative effect
inference (:mod:`.effects`), and the declared architecture layering
(:mod:`.layering`).  Everything here is stdlib-only -- the linter must
run on a tree that does not even import.

:class:`AnalysisProject` bundles the parsed files of one engine run and
builds each graph lazily, exactly once; rules receive it through
``Rule.set_project`` before ``finalize``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.graphs.callgraph import (
    SOLVERS_NODE,
    CallEdge,
    CallGraph,
    ClassInfo,
    FunctionInfo,
    build_call_graph,
)
from repro.analysis.graphs.effects import (
    MUTATION_KINDS,
    MUTATOR_METHODS,
    Effect,
    EffectAnalysis,
    build_effects,
)
from repro.analysis.graphs.functions import (
    FuncDef,
    FunctionSite,
    call_name,
    checkpoint_callers,
    dotted_name,
    index_functions,
    is_checkpoint_call,
    owned_nodes,
)
from repro.analysis.graphs.imports import (
    ImportEdge,
    ImportGraph,
    SourceModule,
    build_import_graph,
    module_name,
    strongly_connected_components,
)
from repro.analysis.graphs.layering import (
    DEFAULT_RANK,
    LAYER_RANKS,
    LayerViolation,
    check_layering,
    layer_table,
    rank_of,
)

__all__ = [
    "DEFAULT_RANK",
    "LAYER_RANKS",
    "MUTATION_KINDS",
    "MUTATOR_METHODS",
    "SOLVERS_NODE",
    "AnalysisProject",
    "CallEdge",
    "CallGraph",
    "ClassInfo",
    "Effect",
    "EffectAnalysis",
    "FuncDef",
    "FunctionInfo",
    "FunctionSite",
    "ImportEdge",
    "ImportGraph",
    "LayerViolation",
    "SourceModule",
    "build_call_graph",
    "build_effects",
    "build_import_graph",
    "call_name",
    "check_layering",
    "checkpoint_callers",
    "dotted_name",
    "index_functions",
    "is_checkpoint_call",
    "layer_table",
    "module_name",
    "owned_nodes",
    "rank_of",
    "strongly_connected_components",
]


class AnalysisProject:
    """Parsed files of one lint run plus lazily-built program graphs.

    The engine constructs one per run after every file has parsed and
    hands it to rules that define ``set_project``; each graph is built
    on first access and shared by every rule that asks.
    """

    def __init__(
        self, sources: Sequence[SourceModule], package: str = "repro"
    ) -> None:
        self.sources = list(sources)
        self.package = package
        self._imports: ImportGraph | None = None
        self._calls: CallGraph | None = None
        self._effects: EffectAnalysis | None = None

    @property
    def imports(self) -> ImportGraph:
        """The import graph (built on first access)."""
        if self._imports is None:
            self._imports = build_import_graph(
                self.sources, package=self.package
            )
        return self._imports

    @property
    def calls(self) -> CallGraph:
        """The call graph (built on first access)."""
        if self._calls is None:
            self._calls = build_call_graph(self.sources, self.imports)
        return self._calls

    @property
    def effects(self) -> EffectAnalysis:
        """Effect inference over the call graph (built on first access)."""
        if self._effects is None:
            self._effects = build_effects(self.calls)
        return self._effects

    def rel_of_module(self, module: str) -> str:
        """Root-relative path of an internal module name."""
        return self.imports.modules.get(module, "")
