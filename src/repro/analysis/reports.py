"""Report rendering for the whole-program graphs (``repro lint --graph``).

This module turns an :class:`~repro.analysis.graphs.AnalysisProject`
into machine-readable (JSON) or GraphViz (DOT) exports of the import
graph and the call graph, plus the layering table the docs render.

Historical note: the *solution* statistics and robustness reports that
used to live here moved to :mod:`repro.bench.solution_stats` and
:mod:`repro.bench.robustness` when ``analysis/`` adopted its
stdlib-only layering contract (REP102); the lazy forwards that kept the
old names importable were removed after two release cycles.
"""

from __future__ import annotations

import json

from repro.analysis.graphs import AnalysisProject, layer_table, rank_of

#: Graph selectors accepted by ``repro lint --graph``.
GRAPH_KINDS = ("imports", "calls")

#: Formats accepted by ``repro lint --graph-format``.
GRAPH_FORMATS = ("json", "dot")


def render_graph(
    project: AnalysisProject, which: str, fmt: str = "json"
) -> str:
    """Render one program graph as a string.

    ``which`` selects ``"imports"`` or ``"calls"``; ``fmt`` selects
    ``"json"`` (node/edge dict, schema-stable) or ``"dot"`` (GraphViz).
    """
    if which not in GRAPH_KINDS:
        raise ValueError(
            f"unknown graph {which!r}; choose from {GRAPH_KINDS}"
        )
    if fmt not in GRAPH_FORMATS:
        raise ValueError(
            f"unknown graph format {fmt!r}; choose from {GRAPH_FORMATS}"
        )
    if which == "imports":
        graph = project.imports
        if fmt == "dot":
            return graph.to_dot()
        payload = graph.as_dict()
        payload["layers"] = {
            module: rank_of(module) for module in sorted(graph.modules)
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    calls = project.calls
    if fmt == "dot":
        return calls.to_dot()
    return json.dumps(calls.as_dict(), indent=2, sort_keys=True)


def render_layer_table() -> str:
    """The declared layering as an aligned text table (docs helper)."""
    rows = [("rank", "module prefix")] + [
        (str(rank), prefix or "<root __init__>")
        for prefix, rank in layer_table()
    ]
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{r[0]:>{width}}  {r[1]}" for r in rows)
