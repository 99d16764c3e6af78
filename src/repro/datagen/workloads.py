"""Temporal customer workloads for the online serving engine.

The paper's introduction motivates MCFS with services that re-solve
"periodically, depending on which customers declare interest".  This
module synthesizes such streams: arrival/departure event sequences over a
network, with a diurnal arrival-rate profile and exponential service
times -- the standard M(t)/M/inf shape of demand processes.

Events feed :class:`repro.serve.ServeEngine`: an arrival becomes a
``CustomerArrive(event.node)`` mutation, a departure the
``CustomerDepart`` of the handle its arrival (``event.ref``) received.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.network.graph import Network


@dataclass(frozen=True)
class WorkloadEvent:
    """One arrival or departure in a temporal workload.

    Attributes
    ----------
    time:
        Event time in hours from the workload start.
    kind:
        ``"arrival"`` or ``"departure"``.
    node:
        Customer location (arrivals only; departures reference the
        arrival via ``ref``).
    ref:
        For departures, the index of the arrival event being ended.
    """

    time: float
    kind: str
    node: int
    ref: int


def diurnal_rate(hour: float, *, base: float = 1.0, peak: float = 4.0) -> float:
    """Arrival rate with morning and evening peaks (events per hour).

    A smooth double-bump profile: ``base`` off-peak, rising to ``peak``
    around 9:00 and 18:00.
    """
    h = hour % 24.0
    morning = math.exp(-((h - 9.0) ** 2) / 4.5)
    evening = math.exp(-((h - 18.0) ** 2) / 4.5)
    return base + (peak - base) * max(morning, evening)


def generate_workload(
    network: Network,
    rng: np.random.Generator,
    *,
    hours: float = 24.0,
    base_rate: float = 2.0,
    peak_rate: float = 10.0,
    mean_stay_hours: float = 2.0,
    node_weights: np.ndarray | None = None,
) -> list[WorkloadEvent]:
    """Generate a time-ordered arrival/departure event stream.

    Arrivals follow a non-homogeneous Poisson process with the diurnal
    rate (thinning method); each arrival stays an exponential time and
    then departs.  Locations are sampled uniformly or per
    ``node_weights``.

    Returns events sorted by time; every departure's ``ref`` indexes the
    corresponding arrival *within the returned list*.
    """
    if hours <= 0:
        raise ValueError(f"hours must be positive, got {hours}")
    if node_weights is not None:
        weights = np.clip(np.asarray(node_weights, dtype=float), 0.0, None)
        total = weights.sum()
        if total <= 0:
            raise ValueError("all node weights are zero")
        probs = weights / total
    else:
        probs = None

    rate_ceiling = max(
        diurnal_rate(h / 10.0, base=base_rate, peak=peak_rate)
        for h in range(int(hours * 10) + 1)
    )

    raw: list[tuple[float, str, int, int]] = []
    t = 0.0
    arrival_counter = 0
    while True:
        t += float(rng.exponential(1.0 / rate_ceiling))
        if t >= hours:
            break
        accept = rng.random() < (
            diurnal_rate(t, base=base_rate, peak=peak_rate) / rate_ceiling
        )
        if not accept:
            continue
        if probs is None:
            node = int(rng.integers(network.n_nodes))
        else:
            node = int(rng.choice(network.n_nodes, p=probs))
        raw.append((t, "arrival", node, arrival_counter))
        stay = float(rng.exponential(mean_stay_hours))
        if t + stay < hours:
            raw.append((t + stay, "departure", node, arrival_counter))
        arrival_counter += 1

    raw.sort(key=lambda e: (e[0], e[1] == "departure"))

    # Re-index departures to the position of their arrival in the sorted
    # list.
    arrival_pos: dict[int, int] = {}
    events: list[WorkloadEvent] = []
    for pos, (time, kind, node, counter) in enumerate(raw):
        if kind == "arrival":
            arrival_pos[counter] = pos
            events.append(WorkloadEvent(time, kind, node, pos))
        else:
            events.append(
                WorkloadEvent(time, kind, node, arrival_pos[counter])
            )
    return events


def replay(
    events: list[WorkloadEvent],
) -> Iterator[tuple[WorkloadEvent, int]]:
    """Iterate events with the number of concurrently active customers.

    Yields ``(event, active_after)`` pairs -- a convenience for tests and
    examples that track system load over time.
    """
    active = 0
    for event in events:
        if event.kind == "arrival":
            active += 1
        else:
            active -= 1
        yield event, active
