"""Dynamic customer reallocation on a fixed facility selection.

The paper's introduction motivates MCFS with services that must be
"solved scalably and repeatedly, as in applications requiring the
dynamic reallocation of customers to facilities".  This example selects
facilities once with WMA and then serves a live stream of customer
arrivals and departures through a :class:`repro.ServeEngine`, keeping
the assignment *optimal* at every step without re-solving from scratch.

Run:
    python examples/dynamic_reallocation.py
"""

from __future__ import annotations

import numpy as np

from repro import CustomerArrive, CustomerDepart, ServeEngine, solve
from repro.bench.reporting import format_table
from repro.datagen import clustered_instance


def main() -> None:
    instance = clustered_instance(
        512, n_clusters=20, alpha=1.5, customer_frac=0.1,
        capacity=20, k_frac_of_m=0.2, seed=5,
    )
    print("Instance:", instance.describe())

    solution = solve(instance, method="wma")
    print(
        f"WMA selected {len(solution.selected)} facilities, "
        f"initial objective {solution.objective:.0f}"
    )
    print()

    engine = ServeEngine(instance, solution.selected)
    rng = np.random.default_rng(1)
    live = engine.handles()

    log = []
    moves = []  # earlier customers rewired by each served arrival
    for step in range(60):
        if live and rng.random() < 0.45:
            handle = live.pop(int(rng.integers(len(live))))
            engine.apply([CustomerDepart(handle)])
            action = "departure"
        else:
            node = int(rng.integers(instance.network.n_nodes))
            result = engine.apply([CustomerArrive(node)])
            outcome = result.outcomes[0]
            if outcome.status == "applied":
                live.append(outcome.handle)
                moves.append(result.moves)
                action = "arrival"
            else:
                action = "rejected (no capacity reachable)"
        if step % 12 == 0:
            log.append(
                {
                    "step": step,
                    "event": action,
                    "active": engine.n_active,
                    "cost": round(engine.cost, 1),
                    "residual_capacity": engine.residual_capacity(),
                }
            )

    print(format_table(log, title="Churn timeline (every 12th step)"))
    print()

    print(
        f"{len(moves)} arrivals processed; "
        f"{sum(1 for x in moves if x > 0)} of them rewired existing "
        f"customers (max {max(moves, default=0)} moved at once)."
    )
    print(
        "The assignment after every step is provably optimal for the "
        "active customers on the fixed selection."
    )


if __name__ == "__main__":
    main()
