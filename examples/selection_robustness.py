"""How long does a facility selection stay good as demand drifts?

Operators don't re-run facility selection for every demand change; they
keep the selection and re-assign customers (cheap), re-selecting only
when the old choice becomes noticeably stale.  This example quantifies
that trade-off with the library's drift study: a growing fraction of the
customer population is resampled, and the fixed selection's optimal
reassignment cost is compared with a from-scratch re-solve.

Run:
    python examples/selection_robustness.py
"""

from __future__ import annotations

from repro import solve
from repro.bench.robustness import drift_study
from repro.bench.reporting import format_table
from repro.datagen import clustered_instance


def main() -> None:
    instance = clustered_instance(
        512, n_clusters=20, alpha=1.5, customer_frac=0.15,
        capacity=10, k_frac_of_m=0.3, seed=9,
    )
    print("Instance:", instance.describe())
    solution = solve(instance, method="wma")
    print(
        f"WMA selection: {len(solution.selected)} facilities, "
        f"objective {solution.objective:.0f}"
    )
    print()

    points = drift_study(
        instance,
        solution,
        fractions=(0.0, 0.1, 0.25, 0.5, 0.75, 1.0),
        seed=4,
    )
    rows = []
    for p in points:
        rows.append(
            {
                "drift": f"{p.drift_fraction:.0%}",
                "stale_selection_cost": (
                    round(p.stale_cost, 1) if p.stale_cost is not None
                    else "infeasible"
                ),
                "fresh_solve_cost": (
                    round(p.fresh_cost, 1) if p.fresh_cost is not None else "-"
                ),
                "regret": (
                    f"{p.regret:+.1%}" if p.regret is not None else "-"
                ),
            }
        )
    print(format_table(rows, title="Selection regret vs demand drift"))
    print()
    print(
        "Rule of thumb from this study: re-assignment alone (the cheap "
        "operation) absorbs small drifts; re-selection pays off once the "
        "regret column grows past the cost of disruption."
    )


if __name__ == "__main__":
    main()
