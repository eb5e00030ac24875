"""The paper's tables and figures as scenario plugins.

One scenario per artifact of the paper's Section 6 (Table 3, Table 4,
Figures 3–10) plus the paper-vs-measured summary; each has a matrix spec
under ``benchmarks/matrices/`` pinned to the reproduction scale.  A cell is
one (dataset, model, backend, symmetry, k) point, and each scenario's
check encodes the transferable shape of the paper's claim for that point:
a cell whose measurement breaks it fails the run.

Strategy roles follow :meth:`ExperimentConfig.strategy_space`: ``phi1`` is
the greedy strategy (mgic/mgwc) and ``phi2`` the heuristic (ddic/sdwc);
metrics carry both labels.  Every scenario draws from its own master-seed
offset, so a cell's result does not depend on which other cells run.
"""

from __future__ import annotations

from itertools import product
from typing import Any

from repro.experiments.paper import (
    MIXED_SCENARIO,
    TABLE4,
    theorem1_holds,
    table4_shape_holds,
)
from repro.experiments.scenarios import (
    ScenarioCell,
    as_estimate,
    estimate,
    estimate_of,
    require,
    scenario,
)
from repro.utils.rng import as_rng
from repro.utils.timing import Stopwatch

#: The paper's smallest budget: the base of the spread-growth check.
BASE_K = 10

_ROLES = ("phi1", "phi2")


def _labels(space: Any) -> dict[str, str]:
    return dict(zip(_ROLES, space.labels))


def _role_seeds(space: Any, graph: Any, k: int, rng: Any) -> dict[tuple[str, str], list[int]]:
    """One independent ``k``-seed draw per (group, strategy role)."""
    return {
        (group, role): phi.select(graph, k, rng)
        for group in ("p1", "p2")
        for role, phi in zip(_ROLES, space)
    }


def _by(cells: list[tuple[ScenarioCell, dict[str, Any]]], key: Any) -> dict[str, list[dict[str, Any]]]:
    """Cell metrics grouped by ``key(cell)``."""
    groups: dict[str, list[dict[str, Any]]] = {}
    for cell, metrics in cells:
        groups.setdefault(key(cell), []).append(metrics)
    return groups


def _mean(values: Any) -> float:
    values = list(values)
    return sum(values) / len(values)


# ---------------------------------------------------------------------- #
# Table 3
# ---------------------------------------------------------------------- #


def _check_table3(metrics: dict[str, Any]) -> None:
    # Surrogates preserve the heavy-tailed collaboration structure (hep and
    # phy; the directed wiki-Talk skew sits in its in-degrees).
    if not metrics["directed"]:
        require(
            metrics["degree_gini"] > 0.3,
            f"degree Gini {metrics['degree_gini']:.3f} <= 0.3: not heavy-tailed",
        )


@scenario(
    "datasets",
    "Table 3: paper-scale dataset sizes beside the surrogate in use",
    check=_check_table3,
)
def datasets(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    from repro.graphs.datasets import DATASETS
    from repro.graphs.stats import summarize

    spec = DATASETS[cell.dataset]
    stats = summarize(config.load(cell.dataset))
    return {
        "paper_nodes": spec.paper_nodes,
        "paper_edges": spec.paper_edges,
        "directed": spec.directed,
        "surrogate_nodes": stats.num_nodes,
        "surrogate_arcs": stats.num_edges,
        "mean_out_degree": float(stats.mean_out_degree),
        "degree_gini": float(stats.degree_gini),
    }


# ---------------------------------------------------------------------- #
# Figures 3 and 4
# ---------------------------------------------------------------------- #

_JACCARD_REPEATS = 3


def _check_jaccard(cells: list[tuple[ScenarioCell, dict[str, Any]]]) -> None:
    # Identical algorithms collide on seeds: same-algorithm pairs overlap
    # more than the cross pair on average over datasets and budgets.
    for model, group in _by(cells, lambda cell: cell.model).items():
        same2, cross, same1 = (
            _mean(metrics[pair]["mean"] for metrics in group)
            for pair in ("phi2-phi2", "phi2-phi1", "phi1-phi1")
        )
        require(
            same2 >= cross,
            f"{model}: mean phi2-phi2 overlap {same2:.3f} below the cross "
            f"pair's {cross:.3f}",
        )
        require(
            same1 >= 0.8 * cross,
            f"{model}: mean phi1-phi1 overlap {same1:.3f} below 0.8x the "
            f"cross pair's {cross:.3f}",
        )


@scenario(
    "jaccard_overlap",
    "Figures 3/4: Jaccard overlap of S1 and S2 per strategy pair",
    matrix_check=_check_jaccard,
)
def jaccard_overlap(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Overlap of the two groups' independent draws, over three repeats.

    The three curves per panel are (φ2, φ2), (φ2, φ1) and (φ1, φ1) — e.g.
    ddic-ddic, ddic-mgic and mgic-mgic under IC.
    """
    from repro.core.metrics import jaccard

    space = config.strategy_space(cell.model)
    graph = config.load(cell.dataset)
    rng = as_rng(config.seed)
    pairs = [("phi2", "phi2"), ("phi2", "phi1"), ("phi1", "phi1")]
    values: dict[str, list[float]] = {f"{a}-{b}": [] for a, b in pairs}
    for _ in range(_JACCARD_REPEATS):
        draws = _role_seeds(space, graph, cell.k, rng)
        for a, b in pairs:
            values[f"{a}-{b}"].append(jaccard(draws[("p1", a)], draws[("p2", b)]))
    return {
        **_labels(space),
        **{pair: estimate_of(sims) for pair, sims in values.items()},
    }


# ---------------------------------------------------------------------- #
# Figures 5, 6 and 7
# ---------------------------------------------------------------------- #


def _spread_panels(
    config: Any, graph: Any, model: Any, seeds: dict, k: int, rng: Any
) -> dict[str, Any]:
    from repro.cascade.simulate import estimate_competitive_spread, estimate_spread

    metrics: dict[str, Any] = {}
    for p2_role in _ROLES:
        panel = {}
        for p1_role in _ROLES:
            ests = estimate_competitive_spread(
                graph,
                model,
                [seeds[("p1", p1_role)][:k], seeds[("p2", p2_role)][:k]],
                config.rounds,
                rng,
                executor=config.executor(),
            )
            panel[p1_role] = as_estimate(ests[0])
        metrics[f"vs_{p2_role}"] = panel
    metrics["single"] = {
        role: as_estimate(
            estimate_spread(
                graph,
                model,
                seeds[("p1", role)][:k],
                config.rounds,
                rng,
                executor=config.executor(),
            )
        )
        for role in _ROLES
    }
    return metrics


def _check_spread(metrics: dict[str, Any]) -> None:
    curves = [
        (panel, role)
        for panel in ("vs_phi1", "vs_phi2", "single")
        for role in _ROLES
    ]
    for panel, role in curves:
        value = metrics[panel][role]["mean"]
        require(value >= 0, f"{panel}/{role}: negative spread {value}")
        # Spreads grow (weakly) with k, up to MC noise.
        base = metrics["base"][panel][role]["mean"]
        require(
            value >= 0.8 * base,
            f"{panel}/{role}: spread {value:.1f} at k below 0.8x its "
            f"{base:.1f} at the base budget",
        )
    single = metrics["single"]["phi1"]["mean"]
    for panel in ("vs_phi1", "vs_phi2"):
        # Competition can only take nodes away, up to MC noise.
        comp = metrics[panel]["phi1"]["mean"]
        require(
            comp <= 1.25 * single + 10,
            f"{panel}: competitive phi1 spread {comp:.1f} exceeds 1.25x the "
            f"singleton's {single:.1f} + 10",
        )


def _check_greedy_dominates(cells: list[tuple[ScenarioCell, dict[str, Any]]]) -> None:
    # Under IC the greedy strategy dominates the heuristic for p1 on
    # average across panels and budgets (the paper's pure NE).
    ic = [(cell, metrics) for cell, metrics in cells if cell.model == "ic"]
    for dataset, group in _by(ic, lambda cell: cell.dataset).items():
        greedy, heuristic = (
            _mean(m[panel][role]["mean"] for m in group for panel in ("vs_phi1", "vs_phi2"))
            for role in _ROLES
        )
        require(
            greedy >= 0.85 * heuristic,
            f"{dataset}/ic: mean phi1 spread {greedy:.1f} below 0.85x "
            f"phi2's {heuristic:.1f}",
        )


@scenario(
    "spread_panels",
    "Figures 5/6/7: p1's competitive spread per p2 choice, plus singletons",
    check=_check_spread,
    matrix_check=_check_greedy_dominates,
)
def spread_panels(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Two panels (p2 plays φ1 / φ2), each with p1's spread per strategy.

    ``single`` holds the non-competitive baselines s-φ1 / s-φ2, and
    ``base`` the same curves for the first ``min(k, BASE_K)`` seeds of the
    same draws (selectors are prefix-consistent), for the growth check.
    At ``k <= BASE_K`` those are the k-panels themselves: a second estimate
    of the same seeds would only test Monte-Carlo noise.
    """
    model = config.model(cell.model)
    space = config.strategy_space(cell.model)
    graph = config.load(cell.dataset)
    rng = as_rng(config.seed)
    seeds = _role_seeds(space, graph, cell.k, rng)
    metrics = _spread_panels(config, graph, model, seeds, cell.k, rng)
    base_k = min(cell.k, BASE_K)
    base = metrics if base_k == cell.k else _spread_panels(
        config, graph, model, seeds, base_k, rng
    )
    return {**_labels(space), **metrics, "base_k": base_k, "base": base}


# ---------------------------------------------------------------------- #
# Figures 8 and 9
# ---------------------------------------------------------------------- #


def _mixture(cell: ScenarioCell, config: Any) -> tuple[Any, Any]:
    """GetReal's recommended mixture (and payoff table) for the cell.

    Uses 3x the configured rounds and three independent seed draws: the
    hep/wc game is a near-tie (that is *why* it is the paper's mixed-case
    scenario), so the pure-vs-mixed decision needs a lower-noise payoff
    table than the figure sweeps do.
    """
    from repro.core.getreal import get_real

    result = get_real(
        config.load(cell.dataset),
        config.model(cell.model),
        config.strategy_space(cell.model),
        num_groups=2,
        k=cell.k,
        rounds=3 * config.rounds,
        seed_draws=3,
        rng=config.seed,
        executor=config.executor(),
        symmetry=cell.symmetry,
    )
    return result.mixture, result.payoff_table


#: Strategy draws per policy in Figure 8 (the paper's R = 50).
SIMULATION_ROUNDS = 50


def _check_mixed_vs_random(metrics: dict[str, Any]) -> None:
    rho = metrics["rho_phi1"]["mean"]
    require(0.0 <= rho <= 1.0, f"mixture weight {rho} outside [0, 1]")
    mixed = metrics["mixed"]["p1"]["mean"] + metrics["mixed"]["p2"]["mean"]
    random = metrics["random"]["p1"]["mean"] + metrics["random"]["p2"]["mean"]
    # The paper reports a ~7% win; MC slack allows a 10% loss.
    require(
        mixed >= 0.9 * random,
        f"mixed policy total {mixed:.1f} below 0.9x uniform-random's {random:.1f}",
    )


@scenario(
    "mixed_vs_random",
    "Figure 8: GetReal's mixed strategy vs uniform-random strategy choice",
    check=_check_mixed_vs_random,
)
def mixed_vs_random(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Both groups draw a pure strategy from the mixture (resp. uniform)
    per round and diffuse once competitively; per-group average spread
    over :data:`SIMULATION_ROUNDS` draws."""
    from repro.cascade.simulate import estimate_competitive_spread
    from repro.core.strategy import MixedStrategy

    mixture, table = _mixture(cell, config)
    space = mixture.space
    model = config.model(cell.model)
    graph = config.load(cell.dataset)
    rng = as_rng(config.seed + 1)
    seeds = {
        (group, phi.name): phi.select(graph, cell.k, rng)
        for group in ("p1", "p2")
        for phi in space
    }
    metrics: dict[str, Any] = {
        **_labels(space),
        "rho_phi1": estimate(mixture.probabilities[0], table.max_stderr()),
    }
    for label, strategy in (("mixed", mixture), ("random", MixedStrategy.uniform(space))):
        spreads: list[tuple[float, float]] = []
        for _ in range(SIMULATION_ROUNDS):
            phi1, phi2 = strategy.sample(rng), strategy.sample(rng)
            ests = estimate_competitive_spread(
                graph,
                model,
                [seeds[("p1", phi1.name)], seeds[("p2", phi2.name)]],
                rounds=1,
                rng=rng,
                executor=config.executor(),
            )
            spreads.append((ests[0].mean, ests[1].mean))
        metrics[label] = {
            "p1": estimate_of(s[0] for s in spreads),
            "p2": estimate_of(s[1] for s in spreads),
        }
    return metrics


def _check_profiles(metrics: dict[str, Any]) -> None:
    pure = [
        value["p1"]["mean"]
        for key, value in metrics.items()
        if isinstance(value, dict) and key != "mixed"
    ]
    mixed = metrics["mixed"]["p1"]["mean"]
    # The mixed expectation is a convex combination of the pure profiles.
    require(
        min(pure) - 1e-6 <= mixed <= max(pure) + 1e-6,
        f"mixed p1 spread {mixed:.2f} outside the pure envelope "
        f"[{min(pure):.2f}, {max(pure):.2f}]",
    )


@scenario(
    "profile_spreads",
    "Figure 9: every pure 2-order profile's spreads vs the mixed expectation",
    check=_check_profiles,
)
def profile_spreads(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    from repro.cascade.simulate import estimate_competitive_spread

    mixture, _ = _mixture(cell, config)
    space = mixture.space
    model = config.model(cell.model)
    graph = config.load(cell.dataset)
    rng = as_rng(config.seed + 2)
    seeds = {
        (group, phi.name): phi.select(graph, cell.k, rng)
        for group in ("p1", "p2")
        for phi in space
    }
    metrics: dict[str, Any] = {}
    mean = [0.0, 0.0]
    var = [0.0, 0.0]
    for i, j in product(range(space.size), repeat=2):
        phi1, phi2 = space[i], space[j]
        ests = estimate_competitive_spread(
            graph,
            model,
            [seeds[("p1", phi1.name)], seeds[("p2", phi2.name)]],
            config.rounds,
            rng,
            executor=config.executor(),
        )
        weight = float(mixture.probabilities[i] * mixture.probabilities[j])
        for g in (0, 1):
            mean[g] += weight * ests[g].mean
            var[g] += (weight * ests[g].stderr) ** 2
        metrics[f"{phi1.name}-{phi2.name}"] = {
            "p1": as_estimate(ests[0]),
            "p2": as_estimate(ests[1]),
        }
    metrics["mixed"] = {
        f"p{g + 1}": estimate(mean[g], var[g] ** 0.5) for g in (0, 1)
    }
    return metrics


# ---------------------------------------------------------------------- #
# Table 4
# ---------------------------------------------------------------------- #

_SOLVE_REPEATS = 5


def _paper_seconds(dataset: str, model: str, order: int) -> float | None:
    return next(
        (
            row.seconds
            for row in TABLE4
            if (row.dataset, row.model, row.order) == (dataset, model, order)
        ),
        None,
    )


def _check_response_time(metrics: dict[str, Any]) -> None:
    require({"r2", "r3"} <= set(metrics), "Table 4 needs both r=z=2 and r=z=3")
    for order in (2, 3):
        row = metrics[f"r{order}"]
        require(
            row["ne_s"] < 1.0,
            f"r=z={order}: NE search took {row['ne_s']:.3f}s (paper: sub-second)",
        )


@scenario(
    "ne_response_time",
    "Table 4: time of the NE search alone at r = z = 2 and 3",
    check=_check_response_time,
)
def ne_response_time(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Algorithm 1 lines 5–11, timed apart from payoff estimation.

    The payoff table is estimated once per order; the timer covers only
    ``solve_strategy_game``, matching the paper's measurement.  ``r = z =
    3`` adds RandomSeeds as the third strategy and a third group.
    """
    from repro.algorithms import RandomSeeds
    from repro.core.getreal import solve_strategy_game
    from repro.core.payoff import estimate_payoff_table
    from repro.core.strategy import StrategySpace

    graph = config.load(cell.dataset)
    model = config.model(cell.model)
    base = config.strategy_space(cell.model)
    rng = as_rng(config.seed + 3)
    metrics: dict[str, Any] = {}
    for order in (2, 3):
        space = base if order == 2 else StrategySpace(list(base) + [RandomSeeds()])
        table = estimate_payoff_table(
            graph,
            model,
            space,
            num_groups=order,
            k=cell.k,
            rounds=max(4, config.rounds // 4),
            rng=rng,
            executor=config.executor(),
            symmetry=cell.symmetry,
        )
        game = table.to_game()
        watch = Stopwatch()
        for _ in range(_SOLVE_REPEATS):
            with watch:
                result = solve_strategy_game(game, space, table)
        metrics[f"r{order}"] = {
            "ne_s": watch.mean_lap,
            "paper_s": _paper_seconds(cell.dataset, cell.model, order),
            "kind": result.kind,
        }
    return metrics


# ---------------------------------------------------------------------- #
# Figure 10
# ---------------------------------------------------------------------- #


def _check_coefficients(metrics: dict[str, Any]) -> None:
    # Theorem 1 / Corollary 1 shapes, with Monte-Carlo slack.
    for key, lo, hi in (
        ("lambda", 0.35, 1.2),
        ("gamma", 0.35, 1.2),
        ("alpha+beta", 0.8, 2.2),
    ):
        value = metrics[key]
        require(lo <= value <= hi, f"{key} = {value:.3f} outside [{lo}, {hi}]")


@scenario(
    "coefficients",
    "Figure 10: gamma, lambda and alpha+beta with Theorem 1's bounds",
    check=_check_coefficients,
)
def coefficients(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    from repro.core.metrics import estimate_coefficients

    space = config.strategy_space(cell.model)
    coeff = estimate_coefficients(
        config.load(cell.dataset),
        config.model(cell.model),
        space[0],
        space[1],
        k=cell.k,
        rounds=config.rounds,
        rng=as_rng(config.seed + 4),
    )
    bounds = coeff.theorem1_bounds()
    return {
        **_labels(space),
        "gamma": float(coeff.gamma),
        "lambda": float(coeff.lam),
        "alpha+beta": float(coeff.alpha_plus_beta),
        "lambda_hi_bound": float(bounds["lambda"][1]),
        "ab_hi_bound": float(bounds["alpha+beta"][1]),
    }


# ---------------------------------------------------------------------- #
# paper vs measured
# ---------------------------------------------------------------------- #


def _check_paper_comparison(metrics: dict[str, Any]) -> None:
    fig10 = metrics["fig10"]
    require(
        theorem1_holds(fig10["lambda"], fig10["gamma"], fig10["alpha+beta"]),
        f"Theorem 1 violated: lambda={fig10['lambda']:.2f} "
        f"gamma={fig10['gamma']:.2f} alpha+beta={fig10['alpha+beta']:.2f}",
    )
    for order in (2, 3):
        seconds = metrics["table4"][f"r{order}"]["ne_s"]
        require(
            table4_shape_holds(seconds, order),
            f"r=z={order}: NE search took {seconds:.3f}s (paper: sub-second)",
        )
    rho = metrics["rho_phi1"]["mean"]
    require(0.0 <= rho <= 1.0, f"mixture weight {rho} outside [0, 1]")


@scenario(
    "paper_comparison",
    "paper vs measured: Table 4 shape, Theorem 1 and the mixed weight",
    check=_check_paper_comparison,
)
def paper_comparison(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """One cell answers "does the reproduction keep the paper's shape?".

    The headline claims at the cell's point, in their transferable form
    (surrogate graphs; absolute numbers differ by design): sub-second NE
    search (Table 4), λ/γ/α+β within Theorem 1, and GetReal's mixture
    weight on φ1 (paper: 0.582 on mgwc for hep/wc).
    """
    mixture, table = _mixture(cell, config)
    return {
        "table4": ne_response_time(cell, config),
        "fig10": coefficients(cell, config),
        "rho_phi1": estimate(mixture.probabilities[0], table.max_stderr()),
        "paper_rho_mgwc": MIXED_SCENARIO["rho_mgwc"],
    }
