"""The online serving engine: warm-start incremental re-solve.

:class:`ServeEngine` keeps the bipartite matching state ``G_b``, the SSPA
Johnson potentials, the persistent nearest-facility
:class:`~repro.network.incremental.StreamPool`, and the selected facility
set warm across a stream of typed mutations
(:mod:`repro.serve.mutations`), applied in batches::

    engine = ServeEngine(instance, selected)
    result = engine.apply([CustomerArrive(17), CustomerDepart(3)])
    result.staleness        # "optimal" | "feasible" | "cached"

Every clean network component keeps one invariant: its rows, facility
potentials and cursors are exactly what ``rebuild_rows`` leaves when it
matches the component's live customers in handle order from a fresh
state (the *cold replay*).  Repair strategy -- incremental first,
escalate only when that invariant dies:

* **Arrivals** run one ``find_pair`` augmentation on the warm state,
  the replay's next step, so an arrivals-only stream never re-solves
  anything.  An arrival into a full component is rejected before any
  search reveals an edge; one into a component with a pending eviction
  waits for that component's re-solve.
* **Departures** of a customer matched over its first revealed edge, at
  a facility with a free seat, only unmatch it: such a customer never
  touched another customer's state, so what remains is the cold replay
  without it (:func:`~repro.flow.sspa.release_row` has the proof).
* **Other departures**, and capacity changes that strand or free
  saturated seats, invalidate the invariant only inside the affected
  network *component*; the engine marks that component dirty and, at
  the end of the batch, re-solves just its customers while every other
  component's edges, potentials, cursors, and matching are transplanted
  wholesale (:meth:`~repro.flow.bipartite.BipartiteState.transplant_row`).
  SSPA augmentations never cross components, so the scoped re-solve is
  bit-identical to a full rebuild.
* Departed rows stay in the state as unmatched rows that no search
  reaches.  Once they outnumber the live rows, the end of the batch
  transplants the live rows into a fresh state; nothing is re-solved,
  so this *compaction* is not a repair and costs amortized O(1) per
  departure.
* **Edge retimes** invalidate every cached distance: the engine swaps in
  the re-weighted network and escalates to a global re-solve, consulting
  the :class:`~repro.serve.cache.SolutionCache` first (deployments that
  oscillate between a few network states restore instantly).

Deadlines ride :mod:`repro.runtime.budget`: ``apply(batch, deadline=s)``
processes mutations and optional optimality repairs under a cooperative
budget, sheds unprocessed mutations when it expires
(``serve.shed_deadline``), and finishes *mandatory* feasibility work --
global rebuilds and over-capacity evictions -- under a ``grace()`` scope
so the returned assignment is always feasible.  The
:attr:`ServeResult.staleness` field reports what the caller got.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.instance import MCFSInstance
from repro.errors import BudgetExceeded, InvalidInstanceError, MatchingError
from repro.flow.bipartite import BipartiteState
from repro.flow.sspa import find_pair, rebuild_rows, release_row
from repro.network.components import component_labels
from repro.network.graph import Network
from repro.obs import metrics
from repro.runtime.budget import Budget, checkpoint as _budget_checkpoint, grace, use
from repro.serve.admission import AdmissionController
from repro.serve.cache import Snapshot, SolutionCache, prime_counters, state_digest
from repro.serve.mutations import (
    CapacityChange,
    CustomerArrive,
    CustomerDepart,
    EdgeRetime,
    Mutation,
)

_BATCH_COUNTERS = metrics.CounterBlock(
    "serve.batches",
    "serve.mutations",
    "serve.applied",
    "serve.rejected",
    "serve.shed_deadline",
)
_REPAIR_COUNTERS = metrics.CounterBlock(
    "serve.repairs_component", "serve.repairs_global", "serve.degraded"
)


@dataclass
class MutationOutcome:
    """What happened to one mutation of a batch."""

    mutation: Mutation
    status: str  # "applied" | "rejected" | "shed"
    handle: int | None = None  # arrivals: the customer handle
    detail: str = ""


@dataclass
class ServeResult:
    """Outcome of one :meth:`ServeEngine.apply` batch.

    ``staleness`` is the engine's contract about the assignment the
    caller can now read:

    * ``"optimal"`` -- cost-optimal for the active customers under the
      current network, selection, and capacities (bit-identical to a
      cold re-solve of the end state);
    * ``"feasible"`` -- capacity-feasible but possibly degraded: repairs
      were deferred (``auto_repair=False``) or shed by the deadline;
    * ``"cached"`` -- optimal, restored wholesale from the solution
      cache rather than recomputed.
    """

    staleness: str
    outcomes: list[MutationOutcome] = field(repr=False)
    applied: int
    rejected: int
    shed: int
    moves: int
    cost: float
    repaired_components: int
    global_repair: bool
    cache_hit: bool
    deadline_exceeded: bool
    elapsed_sec: float


class ServeEngine:
    """Serve an MCFS deployment under a stream of typed mutations.

    Parameters
    ----------
    instance:
        Provides the network and facility metadata; its customer list
        seeds the initial population (``seed_customers=False`` starts
        empty, for callers that replay arrivals themselves).
    selected:
        Facility indices (into ``instance.facility_nodes``) to serve
        from.  The selection stays fixed; capacities may be re-rated via
        :class:`~repro.serve.mutations.CapacityChange`.
    auto_repair:
        Re-optimize dirty components at the end of every batch
        (default).  With ``False`` only *feasibility* repairs run and
        results stay ``"feasible"`` until :meth:`repair` is called.
    max_batch:
        Admission bound: mutations beyond this count per batch are shed
        (``None``: unbounded).
    cache:
        Solution cache for global re-solves: a
        :class:`~repro.serve.cache.SolutionCache`, an ``int`` capacity,
        or ``None`` to disable.
    """

    def __init__(
        self,
        instance: MCFSInstance,
        selected: Sequence[int],
        *,
        auto_repair: bool = True,
        max_batch: int | None = None,
        cache: SolutionCache | int | None = None,
        seed_customers: bool = True,
    ) -> None:
        self._instance = instance
        self._selected = [int(j) for j in selected]
        if not self._selected:
            raise InvalidInstanceError("selection must contain facilities")
        self._sub_nodes = [instance.facility_nodes[j] for j in self._selected]
        self._sub_caps = [int(instance.capacities[j]) for j in self._selected]
        self._pos_of_facility_node = {
            node: pos for pos, node in enumerate(self._sub_nodes)
        }
        self._auto_repair = bool(auto_repair)
        self._network = instance.network
        self._labels = component_labels(self._network)
        self._admission = AdmissionController(max_batch)
        if isinstance(cache, int):
            cache = SolutionCache(cache)
        self._cache = cache

        self._state = BipartiteState(
            self._network, [], self._sub_nodes, self._sub_caps
        )
        # handle -> node (None once departed); handle <-> state row index.
        self._node_of_handle: list[int | None] = []
        self._row_of_handle: dict[int, int] = {}
        self._handle_of_row: dict[int, int] = {}

        # Pending repair work, tracked per network component.
        self._dirty: set[int] = set()
        self._over_capacity: set[int] = set()
        self._global_dirty = False
        self._deferred: set[int] = set()  # handles awaiting a global rebuild

        # Component capacity/occupancy totals for O(1) admission checks.
        self._comp_capacity: dict[int, int] = {}
        self._comp_active: dict[int, int] = {}
        for pos, fnode in enumerate(self._sub_nodes):
            comp = int(self._labels[fnode])
            self._comp_capacity[comp] = (
                self._comp_capacity.get(comp, 0) + self._sub_caps[pos]
            )

        if seed_customers:
            for node in instance.customers:
                outcome = self._arrive(CustomerArrive(int(node)))
                if outcome.status != "applied":
                    raise MatchingError(outcome.detail)

    # ------------------------------------------------------------------
    # The delta API
    # ------------------------------------------------------------------
    def apply(
        self, batch: Iterable[Mutation], *, deadline: float | None = None
    ) -> ServeResult:
        """Apply a batch of mutations and repair the assignment.

        Mutations are processed in order; each yields a
        :class:`MutationOutcome` (``applied``/``rejected``/``shed``).
        With a ``deadline`` the whole batch -- mutation processing plus
        optional optimality repairs -- runs under a cooperative
        :class:`~repro.runtime.budget.Budget`; mandatory feasibility
        work always completes (under grace) so the assignment the
        result describes is feasible no matter what.
        """
        started = time.perf_counter()
        batch = list(batch)
        c_batches, c_mutations, c_applied, c_rejected, c_shed = (
            _BATCH_COUNTERS.get()
        )
        c_comp, c_glob, c_degraded = _REPAIR_COUNTERS.get()
        prime_counters()  # cache vocabulary stays visible without a cache
        c_batches.add()
        c_mutations.add(len(batch))

        before = self._facility_snapshot()
        accepted, overflow = self._admission.admit(batch)
        outcomes: list[MutationOutcome] = []
        deadline_exceeded = False
        cache_hit = False
        global_repair = False
        repaired_components = 0

        budget = Budget(deadline) if deadline is not None else None
        scope = use(budget) if budget is not None else nullcontext()
        with scope:
            try:
                for mutation in accepted:
                    _budget_checkpoint()
                    outcomes.append(self._apply_one(mutation))
            except BudgetExceeded:
                deadline_exceeded = True
            for mutation in accepted[len(outcomes):]:
                outcomes.append(
                    MutationOutcome(mutation, "shed", detail="deadline")
                )
                c_shed.add()

            # Mandatory repairs (feasibility and distance validity) always
            # complete; optional optimality repairs honor the budget.
            if self._global_dirty:
                with grace():
                    cache_hit = self._rebuild_global()
                global_repair = True
                c_glob.add()
            else:
                if self._over_capacity:
                    comps = set(self._over_capacity)
                    with grace():
                        self._rebuild_components(comps)
                    repaired_components += len(comps)
                    c_comp.add(len(comps))
                if self._auto_repair and self._dirty:
                    comps = set(self._dirty)
                    try:
                        self._rebuild_components(comps)
                        repaired_components += len(comps)
                        c_comp.add(len(comps))
                    except BudgetExceeded:
                        deadline_exceeded = True
                # Departed rows linger unmatched until a rebuild; once they
                # outnumber the live rows, transplant the live rows into a
                # fresh state.  Nothing is re-solved, so it is no repair.
                if self._state.m > 2 * self.n_active:
                    with grace():
                        self._rebuild_components(set())
        if budget is not None and budget.expired():
            deadline_exceeded = True

        for outcome in outcomes:
            if outcome.status == "applied":
                c_applied.add()
            elif outcome.status == "rejected":
                c_rejected.add()
        for mutation in overflow:
            outcomes.append(MutationOutcome(mutation, "shed", detail="queue"))

        staleness = self.staleness
        if staleness == "optimal" and cache_hit:
            staleness = "cached"
        if staleness == "feasible":
            c_degraded.add()
        applied = sum(1 for o in outcomes if o.status == "applied")
        rejected = sum(1 for o in outcomes if o.status == "rejected")
        shed = sum(1 for o in outcomes if o.status == "shed")
        return ServeResult(
            staleness=staleness,
            outcomes=outcomes,
            applied=applied,
            rejected=rejected,
            shed=shed,
            moves=self._count_moves(before),
            cost=self.cost,
            repaired_components=repaired_components,
            global_repair=global_repair,
            cache_hit=cache_hit,
            deadline_exceeded=deadline_exceeded,
            elapsed_sec=time.perf_counter() - started,
        )

    def repair(self) -> int:
        """Re-optimize everything pending; returns customers moved.

        The explicit counterpart of ``auto_repair``: after lazy batches
        (or deadline-shed repairs) this restores ``staleness ==
        "optimal"`` for the current state.
        """
        before = self._facility_snapshot()
        if self._global_dirty:
            self._rebuild_global()
        elif self._dirty or self._over_capacity:
            self._rebuild_components(self._dirty | self._over_capacity)
        return self._count_moves(before)

    # ------------------------------------------------------------------
    # Per-mutation processing
    # ------------------------------------------------------------------
    def _apply_one(self, mutation: Mutation) -> MutationOutcome:
        if isinstance(mutation, CustomerArrive):
            return self._arrive(mutation)
        if isinstance(mutation, CustomerDepart):
            return self._depart(mutation)
        if isinstance(mutation, CapacityChange):
            return self._capacity(mutation)
        if isinstance(mutation, EdgeRetime):
            return self._retime(mutation)
        return MutationOutcome(
            mutation, "rejected", detail=f"unknown mutation {mutation!r}"
        )

    def _arrive(self, mutation: CustomerArrive) -> MutationOutcome:
        node = int(mutation.node)
        if not 0 <= node < self._network.n_nodes:
            return MutationOutcome(
                mutation, "rejected", detail=f"node {node} outside network"
            )
        comp = int(self._labels[node])
        # A full component is rejected before any search reveals edges.
        if self._comp_active.get(comp, 0) + 1 > self._comp_capacity.get(comp, 0):
            return MutationOutcome(
                mutation,
                "rejected",
                detail=(
                    f"customer {node} cannot reach any facility with "
                    f"free capacity"
                ),
            )
        row = self._state.append_customer(node)
        if self._global_dirty:
            # Distances are stale: defer the matching to the pending
            # global rebuild.
            handle = self._register(node, row)
            self._deferred.add(handle)
        elif comp in self._over_capacity:
            # The component is re-solved before the batch ends anyway,
            # and a warm search could seat this customer in a seat the
            # pending eviction needs.
            handle = self._register(node, row)
        else:
            try:
                find_pair(self._state, row)
            except MatchingError as exc:
                # The failed search may have revealed edges on other
                # rows, so the component is no longer its cold replay.
                self._state.pop_customer()
                self._dirty.add(comp)
                return MutationOutcome(mutation, "rejected", detail=str(exc))
            except BudgetExceeded:
                self._state.pop_customer()
                self._dirty.add(comp)
                raise
            handle = self._register(node, row)
        self._comp_active[comp] = self._comp_active.get(comp, 0) + 1
        return MutationOutcome(mutation, "applied", handle=handle)

    def _depart(self, mutation: CustomerDepart) -> MutationOutcome:
        handle = int(mutation.handle)
        row = self._row_of_handle.get(handle)
        if row is None:
            return MutationOutcome(
                mutation, "rejected", detail=f"no active customer {handle}"
            )
        node = self._node_of_handle[handle]
        assert node is not None
        comp = int(self._labels[node])
        # A row matched over its first revealed edge, at a facility that
        # was never full, touched no other row: the component stays its
        # cold replay.  Otherwise the freed seat may enable cheaper
        # matchings for the rest of the component, so it is re-solved.
        if self._state.matched[row] and not release_row(self._state, row):
            self._dirty.add(comp)
        self._deferred.discard(handle)
        del self._row_of_handle[handle]
        del self._handle_of_row[row]
        self._node_of_handle[handle] = None
        self._comp_active[comp] -= 1
        return MutationOutcome(mutation, "applied", handle=handle)

    def _capacity(self, mutation: CapacityChange) -> MutationOutcome:
        fnode = int(mutation.facility)
        pos = self._pos_of_facility_node.get(fnode)
        if pos is None:
            return MutationOutcome(
                mutation,
                "rejected",
                detail=f"node {fnode} is not a selected facility",
            )
        new_cap = int(mutation.capacity)
        if new_cap < 0:
            return MutationOutcome(
                mutation, "rejected", detail=f"capacity must be >= 0, got {new_cap}"
            )
        old_cap = self._sub_caps[pos]
        if new_cap == old_cap:
            return MutationOutcome(mutation, "applied")
        comp = int(self._labels[fnode])
        # Every cut is checked: one of unused headroom can still strand
        # another facility's pending overflow.
        if new_cap < old_cap and (
            self._comp_active.get(comp, 0)
            > self._comp_capacity[comp] - old_cap + new_cap
        ):
            return MutationOutcome(
                mutation,
                "rejected",
                detail=(
                    f"cutting facility node {fnode} to capacity "
                    f"{new_cap} would strand customers in its component"
                ),
            )
        load = self._state.load(pos)
        if new_cap < load:
            # Evicting the overflow is mandatory feasibility work.
            self._over_capacity.add(comp)
            self._dirty.add(comp)
        elif new_cap > old_cap and load >= old_cap:
            # A saturated facility gained seats: cheaper matchings may
            # now exist (residual augmentation through the new seats).
            self._dirty.add(comp)
        # Otherwise (shrinking unused headroom, or growing a facility
        # that was not saturated) the current optimum provably survives.
        self._comp_capacity[comp] += new_cap - old_cap
        self._sub_caps[pos] = new_cap
        self._state.capacities[pos] = new_cap
        return MutationOutcome(mutation, "applied")

    def _retime(self, mutation: EdgeRetime) -> MutationOutcome:
        u, v, weight = int(mutation.u), int(mutation.v), float(mutation.weight)
        n = self._network.n_nodes
        if not (0 <= u < n and 0 <= v < n):
            return MutationOutcome(
                mutation, "rejected", detail=f"edge ({u}, {v}) outside network"
            )
        if not weight > 0 or not math.isfinite(weight):
            return MutationOutcome(
                mutation,
                "rejected",
                detail=f"weight must be positive and finite, got {weight}",
            )
        directed = self._network.directed
        replaced = 0
        new_edges = []
        _budget_checkpoint()
        for a, b, old_weight in self._network.edges():
            if (a, b) == (u, v) or (not directed and (a, b) == (v, u)):
                new_edges.append((a, b, weight))
                replaced += 1
            else:
                new_edges.append((a, b, old_weight))
        if replaced == 0:
            return MutationOutcome(
                mutation, "rejected", detail=f"no edge ({u}, {v}) in the network"
            )
        coords = self._network.coords if self._network.has_coords else None
        self._network = Network(n, new_edges, coords=coords, directed=directed)
        # Adjacency is unchanged, so component labels survive; every
        # cached distance (edges, streams, potentials) is now stale.
        self._global_dirty = True
        self._dirty.clear()
        self._over_capacity.clear()
        return MutationOutcome(mutation, "applied")

    def _register(self, node: int, row: int) -> int:
        handle = len(self._node_of_handle)
        self._node_of_handle.append(node)
        self._row_of_handle[handle] = row
        self._handle_of_row[row] = handle
        return handle

    # ------------------------------------------------------------------
    # Scoped re-solves
    # ------------------------------------------------------------------
    def _rebuild_components(self, comps: set[int]) -> None:
        """Re-solve the customers of ``comps``; transplant everything else.

        Builds a fresh state sharing the stream pool, re-matching only
        rows whose component is dirty (in handle order -- the same
        per-component ``find_pair`` sequence a full rebuild would run,
        hence bit-identical cost) while adopting the warm edges,
        potentials, cursors, and matching of every clean row.  Departed
        rows are left behind, so an empty ``comps`` only compacts.
        """
        _budget_checkpoint()
        state = self._state
        handles = sorted(self._row_of_handle)
        nodes = [self._node_of_handle[h] for h in handles]
        fresh = BipartiteState(
            self._network,
            [int(n) for n in nodes],  # type: ignore[arg-type]
            self._sub_nodes,
            self._sub_caps,
            pool=state.pool,
        )
        redo: list[int] = []
        for new_row, handle in enumerate(handles):
            node = nodes[new_row]
            assert node is not None
            if int(self._labels[node]) in comps:
                redo.append(new_row)
            else:
                fresh.transplant_row(new_row, state, self._row_of_handle[handle])
        for pos, fnode in enumerate(self._sub_nodes):
            if int(self._labels[fnode]) not in comps:
                fresh.facility_potential[pos] = state.facility_potential[pos]
        rebuild_rows(fresh, redo)
        self._install(fresh, handles)
        self._dirty -= comps
        self._over_capacity -= comps

    def _rebuild_global(self) -> bool:
        """Full re-solve on the current network; returns cache-hit flag."""
        _budget_checkpoint()
        handles = sorted(self._row_of_handle)
        nodes = [int(self._node_of_handle[h]) for h in handles]  # type: ignore[arg-type]
        key: str | None = None
        if self._cache is not None:
            key = state_digest(
                self._network.fingerprint, self._sub_nodes, self._sub_caps, nodes
            )
            snapshot = self._cache.get(key)
            if snapshot is not None:
                fresh = BipartiteState(
                    self._network, nodes, self._sub_nodes, self._sub_caps
                )
                snapshot.restore(fresh)
                self._install(fresh, handles)
                self._clear_repairs()
                return True
        # A fresh pool: the old one streams on the pre-retime network.
        fresh = BipartiteState(
            self._network, nodes, self._sub_nodes, self._sub_caps
        )
        rebuild_rows(fresh, range(fresh.m))
        self._install(fresh, handles)
        if self._cache is not None and key is not None:
            self._cache.put(key, Snapshot.capture(fresh))
        self._clear_repairs()
        return False

    def _install(self, fresh: BipartiteState, handles: list[int]) -> None:
        self._state = fresh
        self._row_of_handle = {h: row for row, h in enumerate(handles)}
        self._handle_of_row = {row: h for row, h in enumerate(handles)}

    def _clear_repairs(self) -> None:
        self._global_dirty = False
        self._dirty.clear()
        self._over_capacity.clear()
        self._deferred.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def staleness(self) -> str:
        """Current assignment contract: ``"optimal"`` or ``"feasible"``."""
        pending = (
            self._dirty
            or self._over_capacity
            or self._global_dirty
            or self._deferred
        )
        return "feasible" if pending else "optimal"

    @property
    def n_active(self) -> int:
        """Number of currently served customers."""
        return len(self._row_of_handle)

    @property
    def cost(self) -> float:
        """Total distance of the current assignment."""
        return self._state.total_cost()

    @property
    def network(self) -> Network:
        """The network currently served on (retimes swap it)."""
        return self._network

    @property
    def selected_nodes(self) -> tuple[int, ...]:
        """Node ids of the selected facilities."""
        return tuple(self._sub_nodes)

    @property
    def selected_capacities(self) -> tuple[int, ...]:
        """Current capacity per selected facility (after re-rates)."""
        return tuple(self._sub_caps)

    def node_of(self, handle: int) -> int:
        """Network node of an active customer handle."""
        if self._row_of_handle.get(handle) is None:
            raise InvalidInstanceError(f"no active customer {handle}")
        node = self._node_of_handle[handle]
        assert node is not None
        return node

    def handles(self) -> list[int]:
        """Active customer handles, ascending (arrival order)."""
        return sorted(self._row_of_handle)

    def customer_nodes(self) -> list[int]:
        """Nodes of the active customers, in handle order."""
        return [self.node_of(h) for h in self.handles()]

    def facility_of(self, handle: int) -> int:
        """Facility index (into the instance) serving ``handle``."""
        row = self._row_of_handle.get(handle)
        if row is None:
            raise InvalidInstanceError(f"no active customer {handle}")
        if not self._state.matched[row]:
            raise InvalidInstanceError(
                f"customer {handle} awaits the pending global repair"
            )
        (j_sub,) = self._state.matched[row]
        return self._selected[j_sub]

    def assignment(self) -> dict[int, int]:
        """Active handle -> facility index (into the instance)."""
        return {h: self.facility_of(h) for h in self._row_of_handle}

    def load_per_facility(self) -> dict[int, int]:
        """Facility index (into the instance) -> customers served."""
        return {
            self._selected[pos]: self._state.load(pos)
            for pos in range(len(self._selected))
        }

    def residual_capacity(self) -> int:
        """Total unused capacity across the selection."""
        return sum(
            self._state.capacities[pos] - self._state.load(pos)
            for pos in range(self._state.l)
        )

    def _facility_snapshot(self) -> dict[int, int]:
        return {
            h: next(iter(self._state.matched[row]))
            for h, row in self._row_of_handle.items()
            if self._state.matched[row]
        }

    def _count_moves(self, before: dict[int, int]) -> int:
        after = self._facility_snapshot()
        return sum(1 for h, j in before.items() if after.get(h, j) != j)

    def __repr__(self) -> str:
        return (
            f"ServeEngine(active={self.n_active}, "
            f"facilities={len(self._selected)}, staleness={self.staleness!r}, "
            f"cost={self.cost:.1f})"
        )
