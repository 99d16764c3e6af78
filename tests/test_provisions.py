"""Tests for the special provisions (Algorithms 4 and 5)."""

from __future__ import annotations

import pytest

from repro.core.instance import MCFSInstance
from repro.core.provisions import cover_components, select_greedy
from repro.errors import InfeasibleInstanceError
from tests.conftest import build_line_network, build_two_component_network


class TestSelectGreedy:
    def test_pads_to_k(self):
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(0, 9),
            facility_nodes=(0, 5, 9),
            capacities=(5, 5, 5),
            k=2,
        )
        padded = select_greedy(inst, [0])
        assert len(padded) == 2
        assert 0 in padded

    def test_adds_facility_near_worst_customer(self):
        # With facility 0 selected, the worst customer is at node 9; the
        # nearest open candidate to it is node 9 itself.
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(0, 9),
            facility_nodes=(0, 5, 9),
            capacities=(5, 5, 5),
            k=2,
        )
        padded = select_greedy(inst, [0])
        assert padded == [0, 2]

    def test_prioritizes_uncovered_component(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 3),
            facility_nodes=(1, 4),
            capacities=(5, 5),
            k=2,
        )
        padded = select_greedy(inst, [0])
        # The second component (customer 3, infinitely far from facility
        # 0) must receive the next facility.
        assert sorted(padded) == [0, 1]

    def test_unreachable_candidates_fall_back_to_any_open_one(self):
        # The worst customer (node 3, no facility in its triangle) reaches
        # no open candidate, so the next unselected index is opened.
        inst = MCFSInstance(
            network=build_two_component_network(),
            customers=(0, 3),
            facility_nodes=(1, 2, 0),
            capacities=(5, 5, 5),
            k=2,
        )
        assert select_greedy(inst, [0]) == [0, 1]

    def test_noop_when_already_full(self):
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(0,),
            facility_nodes=(0, 5),
            capacities=(5, 5),
            k=1,
        )
        assert select_greedy(inst, [1]) == [1]

    def test_from_empty_selection(self):
        inst = MCFSInstance(
            network=build_line_network(10),
            customers=(2, 7),
            facility_nodes=(0, 5, 9),
            capacities=(5, 5, 5),
            k=2,
        )
        padded = select_greedy(inst, [])
        assert len(padded) == 2
        assert len(set(padded)) == 2


class TestCoverComponents:
    def test_moves_capacity_to_deficient_component(self):
        g = build_two_component_network()
        # Component A: nodes 0-2 with 1 customer; component B: nodes 3-5
        # with 2 customers.  Selected facilities (both in A) leave B
        # uncovered; the repair must move one to B.
        inst = MCFSInstance(
            network=g,
            customers=(0, 3, 4),
            facility_nodes=(1, 2, 5),
            capacities=(2, 2, 2),
            k=2,
        )
        repaired = cover_components(inst, [0, 1])
        assert 2 in repaired  # facility in component B now selected
        assert len(repaired) == 2

    def test_prefers_high_capacity_incoming(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 3, 4, 5),
            facility_nodes=(1, 4, 5),
            capacities=(2, 1, 3),
            k=2,
        )
        # B needs 3 seats; choosing facility 2 (cap 3) suffices.
        repaired = cover_components(inst, [0, 1])
        assert 2 in repaired

    def test_noop_when_already_sufficient(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 3),
            facility_nodes=(1, 4),
            capacities=(2, 2),
            k=2,
        )
        assert cover_components(inst, [0, 1]) == [0, 1]

    def test_infeasible_budget_raises(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 3),
            facility_nodes=(1, 4),
            capacities=(1, 1),
            k=1,
        )
        with pytest.raises(InfeasibleInstanceError):
            cover_components(inst, [0])

    def test_swap_within_component_when_needed(self):
        # One component; selected facility too small, bigger candidate
        # available.
        inst = MCFSInstance(
            network=build_line_network(6),
            customers=(0, 1, 2),
            facility_nodes=(0, 5),
            capacities=(1, 5),
            k=1,
        )
        repaired = cover_components(inst, [0])
        assert repaired == [1]

    def test_result_sorted_and_within_budget(self):
        g = build_two_component_network()
        inst = MCFSInstance(
            network=g,
            customers=(0, 1, 3, 4),
            facility_nodes=(1, 2, 4, 5),
            capacities=(2, 2, 2, 2),
            k=2,
        )
        repaired = cover_components(inst, [0, 1])
        assert repaired == sorted(repaired)
        assert len(repaired) == 2
