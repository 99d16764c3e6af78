"""Timing loop, reference-probe normalization and metric assembly.

One run of a workload fits in ``seconds``, counted from its start:

1. ``SETUPS`` set-ups (generate inputs, materialize caches, build the
   oracle), each timed; the median is ``setup_s``;
2. one untimed warm-up operation, which fills lazy memos (CH target
   cones, stream pools) and records the correctness references;
3. timed cycles of repetitions while the next cycle still fits.  An
   untraced cycle runs the operation once; a traced cycle runs it
   untraced, then traced, so tracing overhead and counter identity are
   measured on equal work.

The 2-vCPU VM these numbers come from flips between a fast and a slow
state every second or so: a fixed piece of work takes 1.4-1.9 times as
long in the slow state, and a run sees both.  A median over repetitions
then measures the share of time the run spent slow.  Every repetition
does the same work step for step, so the benchmark keeps, per step, the
fastest of its repetitions, and an operation is timed as the sum of its
steps' fastest times plus the fastest time of what lies outside any
step.  Slow states only ever add time, so over the 26 or more
repetitions of a run these minima are the fast-state times.

Every set-up and repetition is followed by one run of :class:`RefProbe`,
a fixed stdlib-only Dijkstra of about 25 ms.  Its fastest run measures
the fast state itself, which moves by 10-20% between runs minutes
apart; steps and operations are rescaled by ``REF_NOMINAL_S`` over it.
A set-up runs only ``SETUPS`` times and is long enough to mix both
states, so each is rescaled instead by the mean of the probes just
before and just after it.
"""

from __future__ import annotations

import heapq
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import layers

from repro.obs import metrics as obs_metrics
from repro.obs.tracing import Trace

SETUPS = 3
REF_NOMINAL_S = 0.025
_PROBE_NODES = 1_000
_PROBE_DEGREE = 3
_PROBE_SEED = 20_240_611
_PROBE_SOURCES = tuple(range(20))

#: End-to-end metrics: name -> (unit, better).  Every workload reports all.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "op_s": ("s", "lower"),
    "step_p50_ms": ("ms", "lower"),
    "step_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "mean_dist": ("distance", "lower"),
}

#: Registry counters exported by the traced run, per traced repetition.
COUNTERS = (
    "incremental.streams",
    "incremental.settled",
    "incremental.pops",
    "incremental.edges_materialized",
    "ch.upward_settles",
    "ch.bucket_scans",
    "sspa.augmentations",
    "sspa.dijkstra_runs",
    "sspa.pops",
    "sspa.reveals",
    "sspa.path_edges",
    "bipartite.peak_edges",
    "set_cover.checks",
    "set_cover.heap_pops",
    "set_cover.selections",
    "wma.iterations",
    "serve.repairs_component",
    "serve.repairs_global",
    "serve.applied",
    "serve.rejected",
    "serve.shed_deadline",
)

#: ``ratio.<name>`` -> (numerator counter, denominator counter); the
#: reveal fraction divides by the operation's ``m * l`` instead.
RATIOS = {
    "stream_pops_per_settle": ("incremental.pops", "incremental.settled"),
    "sspa_pops_per_aug": ("sspa.pops", "sspa.augmentations"),
    "set_cover_pops_per_selection": ("set_cover.heap_pops", "set_cover.selections"),
    "reveal_fraction": ("incremental.edges_materialized", None),
}

#: Per-layer metrics of the traced run: name -> (unit, better); no bounds.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"layer.{name}.self_s": ("s", "lower") for name in layers.LAYERS},
    **{f"layer.{name}.calls": ("count", "lower") for name in layers.LAYERS},
    **{name: ("count", "lower") for name in COUNTERS},
    "serve.applied": ("count", "higher"),
    **{f"ratio.{name}": ("ratio", "lower") for name in RATIOS},
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "ref_probe_s": ("s", "lower"),
}


class RefProbe:
    """A fixed CPU-bound reference: heapq Dijkstra over a seeded list graph."""

    def __init__(self) -> None:
        rng = random.Random(_PROBE_SEED)
        adj: list[list[tuple[int, float]]] = [[] for _ in range(_PROBE_NODES)]
        for u in range(_PROBE_NODES):
            for _ in range(_PROBE_DEGREE):
                v = rng.randrange(_PROBE_NODES)
                w = rng.random() + 0.01
                adj[u].append((v, w))
                adj[v].append((u, w))
        self._adj = adj
        self.samples: list[float] = []

    def measure(self) -> float:
        """Run the probe once; returns (and records) its wall seconds."""
        adj = self._adj
        t0 = time.perf_counter()
        for source in _PROBE_SOURCES:
            dist = [float("inf")] * len(adj)
            dist[source] = 0.0
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    nd = d + w
                    if nd < dist[v]:
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


@dataclass
class Rep:
    """One timed repetition, in raw wall seconds."""

    traced: bool
    raw_s: float
    steps: list[float]
    counters: dict[str, float]
    pairs: int
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)


@dataclass
class Result:
    """The outcome of one benchmark run of one workload."""

    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    diagnostics: dict[str, float]
    problems: list[str]
    reps: int
    steps: int

    def as_json(self) -> dict[str, Any]:
        """The result object the benchmark prints as its last line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _exact_counters(registry: obs_metrics.Registry) -> dict[str, float]:
    # Timer seconds are wall-clock, not work: leave them out of the
    # traced-vs-untraced identity check.
    return {
        k: v for k, v in registry.as_dict().items() if not k.endswith(".seconds")
    }


def measure(
    name: str,
    workload: Any,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    spans_path: str | None = None,
) -> Result:
    """Set up, warm up and time ``workload``; see the module docstring."""
    deadline = time.perf_counter() + seconds
    probe = RefProbe()
    before = probe.measure()
    problems: list[str] = []
    attempted = failed = 0

    setups: list[float] = []
    rescaled_setups: list[float] = []
    for _ in range(SETUPS):
        inputs = None  # free the previous inputs before building anew
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
        after = probe.measure()
        rescaled_setups.append(setups[-1] * REF_NOMINAL_S / ((before + after) / 2))
        before = after

    with obs_metrics.use(obs_metrics.Registry()):
        warm = workload.run(inputs)
    verdict = workload.check(inputs, warm)
    problems += verdict.problems
    quality = verdict.quality
    del warm
    probe.measure()

    reps: list[Rep] = []
    spans = Trace()
    cycle = 2 if traced else 1
    slowest = 0.0
    while True:
        cycle_start = time.perf_counter()
        for i in range(len(reps), len(reps) + cycle):
            is_traced = traced and i % 2 == 1
            registry = obs_metrics.Registry()
            clock = layers.LayerClock()
            with obs_metrics.use(registry):
                if is_traced:
                    with layers.instrument(clock, spans), spans.span("rep", rep=i):
                        t0 = time.perf_counter()
                        clock.push(layers.ROOT)
                        op = workload.run(inputs)
                        clock.pop()
                        raw = time.perf_counter() - t0
                else:
                    t0 = time.perf_counter()
                    op = workload.run(inputs)
                    raw = time.perf_counter() - t0
            probe.measure()
            verdict = workload.check(inputs, op)
            attempted += verdict.attempted
            failed += verdict.failed
            problems += verdict.problems
            reps.append(
                Rep(
                    traced=is_traced,
                    raw_s=raw,
                    steps=op.steps,
                    counters=_exact_counters(registry),
                    pairs=op.pairs,
                    self_s=dict(clock.self_s),
                    calls=dict(clock.calls),
                )
            )
            del op
        now = time.perf_counter()
        slowest = max(slowest, now - cycle_start)
        if now + slowest > deadline:
            break

    ref_probe_s = min(probe.samples)
    factor = REF_NOMINAL_S / ref_probe_s
    plain = [r for r in reps if not r.traced]
    diagnostics = {
        "raw.setup_s": statistics.median(setups),
        "raw.op_s": statistics.median(r.raw_s for r in plain),
        "ref_probe_s": ref_probe_s,
    }
    if traced:
        metrics, more = _traced_metrics(reps, factor)
        metrics["ref_probe_s"] = ref_probe_s
        problems += more
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        if spans_path is not None:
            spans.export_jsonl(spans_path)
    else:
        steps, outside = _fastest_parts(plain)
        metrics = {
            "setup_s": statistics.median(rescaled_setups),
            "op_s": (sum(steps) + outside) * factor,
            "step_p50_ms": statistics.median(steps) * factor * 1e3,
            "step_p90_ms": _p90(steps) * factor * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "mean_dist": quality,
        }
        units = {k: unit for k, (unit, _) in END_TO_END.items()}
    return Result(
        workload=name,
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        units=units,
        diagnostics=diagnostics,
        problems=problems,
        reps=len(reps),
        steps=sum(len(r.steps) for r in reps),
    )


def _fastest_parts(reps: list[Rep]) -> tuple[list[float], float]:
    """Per step, its fastest raw seconds over ``reps``, which do the same
    work step for step; and the fastest raw seconds spent outside steps."""
    steps = [min(column) for column in zip(*(r.steps for r in reps), strict=True)]
    outside = min(r.raw_s - sum(r.steps) for r in reps)
    return steps, outside


def _traced_metrics(
    reps: list[Rep], factor: float
) -> tuple[dict[str, float], list[str]]:
    traced = [r for r in reps if r.traced]
    problems = [
        f"rep {i}: counters differ from the first untraced repetition"
        for i, r in enumerate(reps[1:], start=1)
        if r.counters != reps[0].counters
    ]
    typical = min(traced, key=lambda r: r.raw_s)
    out: dict[str, float] = {}
    for layer in layers.LAYERS:
        out[f"layer.{layer}.self_s"] = typical.self_s.get(layer, 0.0) * factor
        out[f"layer.{layer}.calls"] = typical.calls.get(layer, 0)
    counters = typical.counters
    for counter in COUNTERS:
        out[counter] = counters.get(counter, 0)
    for ratio, (num, den) in RATIOS.items():
        denominator = counters.get(den, 0) if den else typical.pairs
        out[f"ratio.{ratio}"] = (
            counters.get(num, 0) / denominator if denominator else 0.0
        )
    untraced = min(r.raw_s for r in reps if not r.traced)
    out["trace.overhead_frac"] = typical.raw_s / untraced - 1
    # The benchmark's own time (layers.ROOT) is not a layer of the program.
    out["trace.coverage"] = (
        sum(s for layer, s in typical.self_s.items() if layer != layers.ROOT)
        / typical.raw_s
    )
    return out, problems
