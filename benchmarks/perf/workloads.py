"""The benchmark's workloads, declared as data and built by one factory.

Each entry of :data:`SPECS` names a workload kind and its parameters, in
the style of a task factory: :func:`make` turns a spec (plus optional
overrides, which the self-test uses to shrink sizes) into a workload
object.  Two kinds exist:

* :class:`SolveWorkload` -- one timed operation is a full WMA solve of a
  pinned instance; a *step* is one WMA main-loop iteration (matching
  round plus cover check, from the solver's own :class:`WMATrace`).
* :class:`ServeWorkload` -- one timed operation replays a synthesized
  mutation trace through a fresh :class:`ServeEngine` as a closed loop
  with one client (the next ``apply`` batch is sent when the previous
  one returns, exactly how ``repro serve`` replays a trace); a *step* is
  one ``apply`` batch.

A run repeats one operation on one input, so every step is timed many
times over identical work.

What ``--seed`` changes is chosen so that a seed changes the inputs but
not the amount of work, which would otherwise drown every timing bound:

* Instances are pinned (each spec's ``instance_seed``).  WMA's work is
  a chaotic function of the instance: across ten instance seeds the
  solve time of the clustered n=2048 family spread by 82% (IQR/median),
  the uniform n=8192 family by 17%.  Solve workloads ignore the seed.
* Serve traces start from one pinned synthesized trace.  The seed moves
  every arrival to a random node of the same network component, so the
  sequence of mutation kinds, handles and per-component occupancy -- and
  with it the number of SSPA augmentations -- stays fixed, while
  distances and stream work change.  Seeding the generator itself makes
  the active-customer count a random walk: ``sspa.pops`` of the churn
  replay then spread by 24% across ten trace seeds, against 2% under
  relocation.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.instance import MCFSInstance
from repro.core.validation import validate_solution
from repro.core.wma import WMASolver
from repro.datagen.instances import clustered_instance, uniform_instance
from repro.datagen.urban import grid_city
from repro.errors import InvalidInstanceError
from repro.flow.sspa import assign_all
from repro.network import oracle as oracle_mod
from repro.network.ch import ContractionHierarchy
from repro.network.components import component_labels
from repro.serve import CustomerArrive, Mutation, ServeEngine, synthesize_trace

#: The pinned base trace; the CI serve soak replays the same trace seed.
TRACE_SEED = 1
#: Facility/initial-customer placement on the city grid; the same draw
#: as ``benchmarks/test_serve_throughput.py``.
CITY_PLACEMENT_SEED = 7

#: Sizes are chosen so that one operation takes 0.3-0.6 s on a 2-vCPU
#: VM: a run of 30 s then times it 30-60 times, and the fastest of that
#: many repetitions of a step is steady from run to run (see
#: ``harness``).  Every operation has 100-250 steps, so the 90th
#: percentile has ten or more beyond it.  The clustered instance is the
#: one of seeds 0-9 at n=1024 with the most WMA iterations that solves in
#: about 0.5 s (236 iterations, 11 SSPA pops per augmentation against 3
#: on uniform).
SPECS: dict[str, dict[str, Any]] = {
    "solve-uniform-2048": {
        "kind": "solve", "family": "uniform", "n": 2048, "instance_seed": 0,
    },
    "solve-clustered-1024": {
        "kind": "solve", "family": "clustered", "n": 1024, "instance_seed": 0,
    },
    "serve-churn-2048": {
        "kind": "serve",
        "family": "uniform",
        "n": 2048,
        "instance_seed": 0,
        "mutations": 1600,
        "batch": 16,
        "p_depart": 0.45,
        "p_capacity": 0.05,
    },
    "serve-arrivals-city-ch": {
        "kind": "serve",
        "family": "city",
        "n": 71,  # grid side: 71 x 71 = 5041 nodes
        "instance_seed": 0,
        "facilities": 24,
        "capacity": 80,
        "initial": 8,
        "mutations": 500,
        "batch": 5,
        "p_depart": 0.0,
        "p_capacity": 0.0,
        "oracle": "ch",
    },
}


@dataclass
class Op:
    """What one operation produced, before any correctness check.

    ``steps`` are raw per-step wall seconds measured inside the
    operation; ``pairs`` is the size ``m * l`` of the complete bipartite
    graph the operation could have revealed.
    """

    steps: list[float]
    pairs: int
    solution: Any = None
    engine: ServeEngine | None = None
    batches: list[tuple[str, int, int, int]] = field(default_factory=list)


@dataclass
class Verdict:
    """Correctness of one operation: requests attempted and failed."""

    attempted: int
    failed: int
    quality: float  # mean assignment distance per customer
    problems: list[str] = field(default_factory=list)


def _instance(family: str, n: int, seed: int, **city: int) -> MCFSInstance:
    if family == "uniform":
        return uniform_instance(n, seed=seed)
    if family == "clustered":
        return clustered_instance(n, seed=seed)
    network = grid_city(n, n, seed=seed)
    rng = np.random.default_rng(CITY_PLACEMENT_SEED)
    facilities = city["facilities"]
    nodes = sorted(
        int(v) for v in rng.choice(network.n_nodes, size=facilities, replace=False)
    )
    customers = tuple(
        int(v) for v in rng.integers(0, network.n_nodes, size=city["initial"])
    )
    return MCFSInstance(
        network=network,
        customers=customers,
        facility_nodes=tuple(nodes),
        capacities=(city["capacity"],) * facilities,
        k=facilities,
    )


@dataclass
class SolveInputs:
    instance: MCFSInstance
    reference: float | None = None  # the warm-up's objective


class SolveWorkload:
    """A full WMA solve of one pinned instance per operation."""

    kind = "solve"
    step_name = "WMA iterations"

    def __init__(self, family: str, n: int, instance_seed: int) -> None:
        self.family = family
        self.n = n
        self.instance_seed = instance_seed

    def setup(self, seed: int) -> SolveInputs:
        del seed  # the instance is pinned; see the module docstring
        instance = _instance(self.family, self.n, self.instance_seed)
        instance.network.materialize_caches()
        return SolveInputs(instance)

    def run(self, inputs: SolveInputs) -> Op:
        instance = inputs.instance
        solver = WMASolver(instance)
        solution = solver.solve()
        steps = [
            a + b
            for a, b in zip(
                solver.trace.matching_time, solver.trace.cover_time, strict=True
            )
        ]
        return Op(steps=steps, pairs=instance.m * instance.l, solution=solution)

    def check(self, inputs: SolveInputs, op: Op) -> Verdict:
        instance, solution = inputs.instance, op.solution
        problems = []
        try:
            validate_solution(instance, solution)
        except InvalidInstanceError as exc:
            problems.append(f"invalid solution: {exc}")
        if inputs.reference is None:
            inputs.reference = solution.objective
        if solution.objective != inputs.reference:
            problems.append(
                f"objective {solution.objective!r} != warm-up {inputs.reference!r}"
            )
        return Verdict(
            attempted=1,
            failed=1 if problems else 0,
            quality=solution.objective / instance.m,
            problems=problems,
        )


def _relocate(
    trace: list[Mutation], labels: np.ndarray, rng: np.random.Generator
) -> list[Mutation]:
    """Move every arrival to a random node of its own network component.

    The map is one random permutation of the nodes inside each
    component, so co-located arrivals stay co-located and every
    component sees the same arrivals and departures as before: a trace
    that applies cleanly still does.
    """
    perm = np.arange(labels.size)
    for comp in np.unique(labels):
        nodes = np.flatnonzero(labels == comp)
        perm[nodes] = rng.permutation(nodes)
    return [
        CustomerArrive(int(perm[m.node])) if isinstance(m, CustomerArrive) else m
        for m in trace
    ]


@dataclass
class ServeInputs:
    instance: MCFSInstance
    selection: list[int]
    trace: list[Mutation]
    oracle: ContractionHierarchy | None
    reference: float | None = None  # cold assign_all cost of the end state


class ServeWorkload:
    """Closed-loop replay of a synthesized trace through a fresh engine."""

    kind = "serve"
    step_name = "apply batches"

    def __init__(
        self,
        family: str,
        n: int,
        instance_seed: int,
        mutations: int,
        batch: int,
        p_depart: float,
        p_capacity: float,
        oracle: str | None = None,
        **city: int,
    ) -> None:
        self.family = family
        self.n = n
        self.instance_seed = instance_seed
        self.mutations = mutations
        self.batch = batch
        self.p_depart = p_depart
        self.p_capacity = p_capacity
        self.oracle = oracle
        self.city = city

    def setup(self, seed: int) -> ServeInputs:
        instance = _instance(self.family, self.n, self.instance_seed, **self.city)
        network = instance.network
        network.materialize_caches()
        if self.family == "city":
            selection = list(range(instance.l))
        else:
            selection = list(WMASolver(instance).solve().selected)
        hierarchy = ContractionHierarchy.build(network) if self.oracle else None
        base = synthesize_trace(
            network,
            self.mutations,
            facility_nodes=[instance.facility_nodes[j] for j in selection],
            capacities=[int(instance.capacities[j]) for j in selection],
            start_handle=len(instance.customers),
            customer_nodes=[int(c) for c in instance.customers],
            seed=TRACE_SEED,
            p_depart=self.p_depart,
            p_capacity=self.p_capacity,
        )
        trace = _relocate(base, component_labels(network), np.random.default_rng(seed))
        return ServeInputs(instance, selection, trace, hierarchy)

    def run(self, inputs: ServeInputs) -> Op:
        trace = inputs.trace
        scope = (
            oracle_mod.use(inputs.oracle) if inputs.oracle is not None
            else nullcontext()
        )
        steps: list[float] = []
        batches: list[tuple[str, int, int, int]] = []
        size = self.batch
        with scope:
            engine = ServeEngine(inputs.instance, inputs.selection)
            for start in range(0, len(trace), size):
                batch = trace[start:start + size]
                t0 = time.perf_counter()
                result = engine.apply(batch)
                steps.append(time.perf_counter() - t0)
                batches.append(
                    (result.staleness, result.rejected, result.shed, len(batch))
                )
        customers = len(inputs.instance.customers) + len(trace)
        return Op(
            steps=steps,
            pairs=customers * len(inputs.selection),
            engine=engine,
            batches=batches,
        )

    def check(self, inputs: ServeInputs, op: Op) -> Verdict:
        engine = op.engine
        assert engine is not None
        problems = []
        attempted = failed = 0
        for staleness, rejected, shed, size in op.batches:
            attempted += size
            if staleness != "optimal":
                failed += size
                problems.append(f"batch returned staleness {staleness!r}")
            elif rejected or shed:
                failed += rejected + shed
                problems.append(f"batch rejected {rejected}, shed {shed}")
        if inputs.reference is None:
            inputs.reference = assign_all(
                engine.network,
                engine.customer_nodes(),
                list(engine.selected_nodes),
                list(engine.selected_capacities),
            ).cost
        if engine.cost != inputs.reference:
            failed = attempted
            problems.append(
                f"final cost {engine.cost!r} != cold assign_all {inputs.reference!r}"
            )
        return Verdict(
            attempted=attempted,
            failed=failed,
            quality=engine.cost / engine.n_active,
            problems=problems,
        )


def make(name: str, **overrides: Any) -> SolveWorkload | ServeWorkload:
    """Build the workload ``name``, with spec fields replaced by ``overrides``."""
    spec = {**SPECS[name], **overrides}
    kind = spec.pop("kind")
    if kind == "solve":
        return SolveWorkload(**spec)
    return ServeWorkload(**spec)
