"""Stateful property tests of the dynamic layer.

Hypothesis drives :class:`ServeMachine` through random interleavings of
the full typed-mutation API of :class:`~repro.serve.ServeEngine` --
arrivals, departures, capacity re-rates, and edge retimes -- in randomly
sized batches.

After every step the engine must be (a) capacity-feasible and (b) --
whenever ``staleness == "optimal"`` -- cost-equal to a fresh cold
``assign_all`` of the surviving customers on the *current* network.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.instance import MCFSInstance
from repro.flow.sspa import assign_all
from repro.serve import (
    CapacityChange,
    CustomerArrive,
    CustomerDepart,
    EdgeRetime,
    ServeEngine,
)
from tests.conftest import build_grid_network

GRID = build_grid_network(5, 5)
FACILITIES = (0, 12, 24)
CAPACITIES = (3, 3, 3)


class ServeMachine(RuleBasedStateMachine):
    """Random typed-mutation batches vs the cold ``assign_all`` oracle."""

    @initialize()
    def setup(self):
        instance = MCFSInstance(
            network=GRID,
            customers=(6,),
            facility_nodes=FACILITIES,
            capacities=CAPACITIES,
            k=3,
        )
        self.engine = ServeEngine(instance, [0, 1, 2], cache=4)
        self.nodes: dict[int, int] = {0: 6}  # handle -> node
        self.caps: dict[int, int] = dict(zip(FACILITIES, CAPACITIES))

    def _apply(self, mutations):
        result = self.engine.apply(mutations)
        for outcome in result.outcomes:
            if outcome.status != "applied":
                continue
            mutation = outcome.mutation
            if isinstance(mutation, CustomerArrive):
                self.nodes[outcome.handle] = mutation.node
            elif isinstance(mutation, CustomerDepart):
                self.nodes.pop(mutation.handle, None)
            elif isinstance(mutation, CapacityChange):
                self.caps[mutation.facility] = mutation.capacity
        return result

    @rule(batch=st.lists(st.integers(0, 24), min_size=1, max_size=4))
    def arrive_batch(self, batch):
        free = sum(self.caps.values()) - len(self.nodes)
        result = self._apply([CustomerArrive(node) for node in batch])
        # The grid is connected, so exactly the seats that exist fill up.
        assert result.applied == min(len(batch), free)
        assert result.rejected == len(batch) - result.applied

    @precondition(lambda self: self.nodes)
    @rule(pick=st.integers(0, 10_000))
    def depart(self, pick):
        handle = sorted(self.nodes)[pick % len(self.nodes)]
        result = self._apply([CustomerDepart(handle)])
        assert result.outcomes[0].status == "applied"
        assert handle not in self.nodes

    @rule(which=st.integers(0, 2), delta=st.integers(1, 2))
    def grow_capacity(self, which, delta):
        fnode = FACILITIES[which]
        result = self._apply([CapacityChange(fnode, self.caps[fnode] + delta)])
        assert result.outcomes[0].status == "applied"

    @rule(which=st.integers(0, 2), delta=st.integers(1, 2))
    def shrink_capacity(self, which, delta):
        fnode = FACILITIES[which]
        new_cap = max(0, self.caps[fnode] - delta)
        outcome = self._apply([CapacityChange(fnode, new_cap)]).outcomes[0]
        # Rejected only when the cut would strand customers; the model
        # capacity then stays put (handled in _apply).
        if outcome.status == "rejected":
            assert len(self.nodes) > sum(self.caps.values()) - (
                self.caps[fnode] - new_cap
            )
        else:
            assert self.caps[fnode] == new_cap

    @rule(edge=st.integers(0, 10_000), scale=st.sampled_from([0.5, 1.5, 3.0]))
    def retime(self, edge, scale):
        edges = list(self.engine.network.edges())
        u, v, w = edges[edge % len(edges)]
        result = self._apply([EdgeRetime(int(u), int(v), float(w) * scale)])
        assert result.outcomes[0].status == "applied"
        assert result.global_repair

    @invariant()
    def capacity_feasible(self):
        loads = self.engine.load_per_facility()
        for j, load in loads.items():
            assert load <= self.caps[FACILITIES[j]]
        assert sum(loads.values()) == len(self.nodes)
        assert self.engine.n_active == len(self.nodes)

    @invariant()
    def cost_matches_cold_solve(self):
        assert self.engine.staleness == "optimal"  # auto_repair on
        if not self.nodes:
            assert self.engine.cost == 0.0
            return
        cold = assign_all(
            self.engine.network,
            [self.nodes[h] for h in sorted(self.nodes)],
            list(FACILITIES),
            [self.caps[f] for f in FACILITIES],
        )
        assert self.engine.cost == cold.cost  # bit-identical, not approx


TestServeStateful = ServeMachine.TestCase
TestServeStateful.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)
