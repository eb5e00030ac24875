"""A tournament over the whole strategy shelf — beyond the paper's z = 2.

GetReal is agnostic to the strategy space; this script throws five very
different IM algorithms into one game on the Hep surrogate (under WC),
prints the diagonal of the payoff table and each strategy's average
performance, and reports the equilibrium over all five.  A weak strategy
(random seeding) is included deliberately: the equilibrium must assign it
zero weight.

Run:  python examples/strategy_tournament.py     (~1 second)
"""

import numpy as np

import repro
from repro.utils.tables import format_table

K = 20
ROUNDS = 16


def main() -> None:
    graph = repro.hep(scale=0.06)
    model = repro.WeightedCascade()
    print(f"arena: {graph} (weighted cascade, k={K})\n")

    space = repro.StrategySpace(
        [
            repro.MixGreedy(model, num_snapshots=60),
            repro.HighDegree(),
            repro.SingleDiscount(),
            repro.PageRankSeeds(),
            repro.RandomSeeds(),
        ]
    )
    print(f"contestants: {space.labels}\n")

    result = repro.get_real(
        graph, model, space, num_groups=2, k=K, rounds=ROUNDS, rng=2015
    )
    game = result.game

    # Average payoff of each strategy across all opponent choices.
    rows = []
    z = space.size
    for i in range(z):
        own = np.mean([game.payoff((i, j), 0) for j in range(z)])
        diag = game.payoff((i, i), 0)
        rows.append(
            {
                "strategy": space[i].name,
                "avg_vs_field": own,
                "mirror_match": diag,
                "equilibrium_weight": float(result.mixture.probabilities[i]),
            }
        )
    rows.sort(key=lambda r: -r["avg_vs_field"])
    print(format_table(rows, title="tournament standings"))
    print()
    print(f"equilibrium: {result.describe()}")

    random_index = space.index_of("random")
    weight = float(result.mixture.probabilities[random_index])
    print(f"weight on random seeding: {weight:.4f} (should be ~0)")

    report = repro.efficiency_report(result)
    print(
        f"equilibrium welfare {report.equilibrium_welfare:.1f} vs optimal "
        f"{report.optimal_welfare:.1f} -> price of anarchy "
        f"{report.price_of_anarchy:.3f}"
    )


if __name__ == "__main__":
    main()
