"""Unit tests for the loop classifier REP110 and REP111 share.

Each loop is classified against the two-valued size lattice (instance
vs bounded) and given its instance-loop nesting depth.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.graphs import index_functions
from repro.analysis.perfrules import local_loops


def analyze(source: str):
    tree = ast.parse(textwrap.dedent(source))
    return local_loops(index_functions(tree)[0])


class TestLoopClassifier:
    def test_loop_over_instance_collection_name(self):
        info = analyze(
            """
            def f(nodes):
                for u in nodes:
                    pass
            """
        )
        assert [li.kind for li in info.loops] == ["instance"]
        assert [li.depth for li in info.loops] == [1]

    def test_loop_over_annotated_list_parameter(self):
        info = analyze(
            """
            def f(rows: list[int]):
                for r in rows:
                    pass
            """
        )
        assert [li.kind for li in info.loops] == ["instance"]

    def test_range_loop_is_bounded(self):
        info = analyze(
            """
            def f():
                for i in range(8):
                    pass
            """
        )
        assert [li.kind for li in info.loops] == ["bounded"]
        assert [li.depth for li in info.loops] == [0]

    def test_range_over_instance_scalar_attribute_is_instance(self):
        # Bare scalar names stay bounded (a plain ``n`` could be a knob),
        # but ``range(state.m)``-style attribute scalars are the
        # instance-size idiom the flow layer uses everywhere.
        info = analyze(
            """
            def f(state):
                for i in range(state.n_nodes):
                    pass
            """
        )
        assert [li.kind for li in info.loops] == ["instance"]

    def test_while_loops_are_always_instance(self):
        info = analyze(
            """
            def f():
                while True:
                    break
            """
        )
        assert [li.kind for li in info.loops] == ["instance"]

    def test_dict_view_inherits_receiver_size(self):
        info = analyze(
            """
            def f(adjacency: dict[int, list[int]]):
                for u, row in adjacency.items():
                    pass
            """
        )
        assert [li.kind for li in info.loops] == ["instance"]

    def test_nested_depth_and_line_stacks(self):
        info = analyze(
            """
            def f(nodes, edges):
                for u in nodes:
                    for e in edges:
                        x = 1
                done = True
            """
        )
        # Each loop's line and the instance loops enclosing it, itself
        # included.
        assert [(li.node.lineno, li.depth) for li in info.loops] == [
            (3, 1),
            (4, 2),
        ]

    def test_bounded_wrapper_over_instance_iterable_stays_instance(self):
        info = analyze(
            """
            def f(nodes):
                for i, u in enumerate(nodes):
                    pass
            """
        )
        assert [li.kind for li in info.loops] == ["instance"]

    def test_local_rebinding_propagates_instance_size(self):
        info = analyze(
            """
            def f(nodes):
                frontier = nodes
                for u in frontier:
                    pass
            """
        )
        assert [li.kind for li in info.loops] == ["instance"]
