"""Ablations and extensions beyond the paper, as scenario plugins.

The ablations probe the modelling choices behind the paper's numbers
(equilibrium efficiency, NE solver agreement, tie-break/claim rules,
Monte-Carlo effort vs decision stability); the extensions run GetReal
where the paper only gestures: alternate best-response dynamics, influence
blocking (the Budak/He family), asymmetric budgets, collusion, the
value of knowing the rival's seeds, and ``r = z = 3``.  The LT-model
extension is the ``getreal`` scenario with ``models: ["lt"]``.  Each has a
matrix spec under ``benchmarks/matrices/``; the cell's ``k`` is the
budget the experiment studies.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import product
from typing import Any

from repro.experiments.scenarios import (
    ScenarioCell,
    as_estimate,
    estimate,
    getreal_metrics,
    require,
    scenario,
)
from repro.utils.rng import as_rng
from repro.utils.timing import Stopwatch


def _half_rounds(config: Any) -> int:
    return max(6, config.rounds // 2)


# ---------------------------------------------------------------------- #
# ablations
# ---------------------------------------------------------------------- #


def _check_efficiency(metrics: dict[str, Any]) -> None:
    poa = metrics["price_of_anarchy"]
    require(poa >= 1.0 - 1e-9, f"price of anarchy {poa} below 1")
    # Near-tie games are near-efficient.
    require(poa < 2.0, f"price of anarchy {poa:.3f} >= 2")


@scenario(
    "equilibrium_efficiency",
    "ablation: equilibrium welfare vs the optimum (price of anarchy)",
    check=_check_efficiency,
)
def equilibrium_efficiency(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """How much total influence self-interested play leaves on the table
    relative to the welfare-optimal profile a coordinator would impose."""
    from repro.core.analysis import efficiency_report
    from repro.core.getreal import get_real

    result = get_real(
        config.load(cell.dataset),
        config.model(cell.model),
        config.strategy_space(cell.model),
        num_groups=2,
        k=cell.k,
        rounds=config.rounds,
        rng=as_rng(config.seed + 140),
        executor=config.executor(),
        symmetry=cell.symmetry,
    )
    report = efficiency_report(result)
    return {
        "kind": result.kind,
        "equilibrium_welfare": float(report.equilibrium_welfare),
        "optimal_welfare": float(report.optimal_welfare),
        "optimal_profile": "-".join(
            result.mixture.space[a].name for a in report.optimal_profile
        ),
        "price_of_anarchy": float(report.price_of_anarchy),
    }


#: Random symmetric 2x2 games cross-checked per solver-agreement cell.
RANDOM_GAMES = 10


def _solve_all(game: Any) -> dict[str, dict[str, Any]]:
    """Symmetric mixture, regret and runtime of every NE solver."""
    import numpy as np

    from repro.game.lemke_howson import lemke_howson
    from repro.game.mixed import (
        regret_of_symmetric_mixture,
        symmetric_mixed_equilibrium,
    )
    from repro.game.replicator import replicator_dynamics
    from repro.game.support_enum import support_enumeration

    def symmetric_support_enum(g: Any) -> Any:
        found = [x for x, y in support_enumeration(g) if np.allclose(x, y, atol=1e-6)]
        return found[0] if found else None

    solvers: dict[str, Callable[[Any], Any]] = {
        "indifference": symmetric_mixed_equilibrium,
        "support-enum": symmetric_support_enum,
        "lemke-howson": lambda g: lemke_howson(g)[0],
        "replicator(avg)": lambda g: replicator_dynamics(
            g, steps=2000, rng=0, average=True
        ),
    }
    rows = {}
    for name, solve in solvers.items():
        watch = Stopwatch()
        with watch:
            mixture = solve(game)
        # None (JSON null) when the solver found no symmetric equilibrium.
        rows[name] = {
            "rho_phi1": None if mixture is None else float(mixture[0]),
            "regret": (
                None
                if mixture is None
                else float(regret_of_symmetric_mixture(game, mixture))
            ),
            "seconds": watch.elapsed,
        }
    return rows


def _random_game_agreement() -> float:
    """Fraction of random symmetric 2x2 games whose indifference mixture
    is among support enumeration's symmetric equilibria."""
    import numpy as np

    from repro.game.mixed import symmetric_mixed_equilibrium
    from repro.game.normal_form import NormalFormGame
    from repro.game.support_enum import support_enumeration

    rng = as_rng(7)
    agree = 0
    for _ in range(RANDOM_GAMES):
        game = NormalFormGame.from_bimatrix(rng.random((2, 2)) * 100)
        mixture = symmetric_mixed_equilibrium(game)
        symmetric = [
            x for x, y in support_enumeration(game) if np.allclose(x, y, atol=1e-6)
        ]
        agree += any(np.allclose(mixture, x, atol=1e-5) for x in symmetric)
    return agree / RANDOM_GAMES


def _check_solvers(metrics: dict[str, Any]) -> None:
    regrets = [
        row["regret"]
        for row in metrics["solvers"].values()
        if row["regret"] is not None
    ]
    require(bool(regrets), "no solver returned a symmetric mixture")
    for regret in regrets:
        require(regret >= -1e-9, f"negative regret {regret}")
    require(
        metrics["random_2x2_agreement"] == 1.0,
        f"indifference solver disagrees with support enumeration on "
        f"{1 - metrics['random_2x2_agreement']:.0%} of random 2x2 games",
    )


@scenario(
    "solver_agreement",
    "ablation: NE solvers' agreement and cost on the estimated game",
    check=_check_solvers,
)
def solver_agreement(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Cross-check GetReal's symmetric indifference solver against support
    enumeration, Lemke–Howson and time-averaged replicator dynamics on the
    cell's (symmetrized) estimated game, plus on random symmetric 2x2
    games."""
    from repro.core.getreal import symmetrize
    from repro.core.payoff import estimate_payoff_table

    table = estimate_payoff_table(
        config.load(cell.dataset),
        config.model(cell.model),
        config.strategy_space(cell.model),
        num_groups=2,
        k=cell.k,
        rounds=_half_rounds(config),
        rng=as_rng(config.seed + 50),
        executor=config.executor(),
        symmetry=cell.symmetry,
    )
    return {
        "solvers": _solve_all(symmetrize(table.to_game())),
        "random_2x2_agreement": _random_game_agreement(),
    }


def _check_claim_rules(metrics: dict[str, Any]) -> None:
    totals = [row["total"]["mean"] for row in metrics.values()]
    # Rules only redistribute nodes: total activation is rule-invariant.
    require(
        max(totals) <= 1.35 * min(totals) + 10,
        f"total activation varies {min(totals):.1f}..{max(totals):.1f} "
        "across rules (allowed: 1.35x + 10)",
    )


@scenario(
    "claim_rules",
    "ablation: seed tie-break and node-claim rules on a heuristic mirror match",
    check=_check_claim_rules,
)
def claim_rules(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Per-group spreads under every (tie-break, claim rule) pair.

    Both groups play φ2 (the deterministic heuristic), so every seed is
    contested — the maximal-overlap case where the rules matter most.
    """
    from repro.cascade.competitive import ClaimRule, TieBreakRule
    from repro.cascade.simulate import estimate_competitive_spread

    graph = config.load(cell.dataset)
    heuristic = config.strategy_space(cell.model)[1]
    rng = as_rng(config.seed + 40)
    seed_sets = [heuristic.select(graph, cell.k, rng) for _ in range(2)]
    metrics = {}
    for tie_break, claim_rule in product(TieBreakRule, ClaimRule):
        p1, p2 = estimate_competitive_spread(
            graph,
            config.model(cell.model),
            seed_sets,
            rounds=config.rounds,
            rng=as_rng(config.seed + 41),
            tie_break=tie_break,
            claim_rule=claim_rule,
            executor=config.executor(),
        )
        metrics[f"{tie_break.value}/{claim_rule.value}"] = {
            "p1": as_estimate(p1),
            "p2": as_estimate(p2),
            "total": estimate(
                p1.mean + p2.mean, math.hypot(p1.stderr, p2.stderr)
            ),
        }
    return metrics


#: Payoff-estimation budgets swept by the decision-stability ablation.
ROUNDS_LEVELS = (5, 10, 20, 40)
_STABILITY_REPEATS = 5


def _check_stability(metrics: dict[str, Any]) -> None:
    first, last = (
        metrics[f"rounds{r}"]["max_stderr"]
        for r in (ROUNDS_LEVELS[0], ROUNDS_LEVELS[-1])
    )
    # Noise shrinks with budget: the payoff stderr must decrease.
    require(
        last < first,
        f"payoff stderr {last:.3f} at {ROUNDS_LEVELS[-1]} rounds not below "
        f"{first:.3f} at {ROUNDS_LEVELS[0]}",
    )


@scenario(
    "decision_stability",
    "ablation: pure/mixed decision stability vs Monte-Carlo rounds",
    check=_check_stability,
)
def decision_stability(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """GetReal repeated with fresh randomness per payoff budget.

    Per level: how often the decision is pure, the majority decision, the
    mean and range of the recommended weight on φ1, and the mean payoff
    noise.  hep/wc is deliberately the paper's knife-edge scenario.
    """
    import numpy as np

    from repro.core.getreal import get_real

    graph = config.load(cell.dataset)
    model = config.model(cell.model)
    metrics = {}
    for rounds in ROUNDS_LEVELS:
        kinds: list[str] = []
        rhos: list[float] = []
        stderrs: list[float] = []
        for i in range(_STABILITY_REPEATS):
            result = get_real(
                graph,
                model,
                config.strategy_space(cell.model),
                num_groups=2,
                k=cell.k,
                rounds=rounds,
                rng=as_rng(config.seed + 100 + 31 * i + rounds),
                executor=config.executor(),
                symmetry=cell.symmetry,
            )
            kinds.append(result.kind)
            rhos.append(float(result.mixture.probabilities[0]))
            stderrs.append(result.payoff_table.max_stderr())
        metrics[f"rounds{rounds}"] = {
            "pure_fraction": kinds.count("pure") / len(kinds),
            "majority_kind": max(sorted(set(kinds)), key=kinds.count),
            "mean_rho_phi1": float(np.mean(rhos)),
            "rho_spread": float(np.max(rhos) - np.min(rhos)),
            "max_stderr": float(np.mean(stderrs)),
        }
    return metrics


# ---------------------------------------------------------------------- #
# extensions
# ---------------------------------------------------------------------- #


def _check_alternate(metrics: dict[str, Any]) -> None:
    alternate = metrics["alternate"]["total"]
    blind = metrics["getreal"]["total"]["mean"]
    # Neither protocol should dominate the other dramatically.
    require(
        blind >= 0.7 * alternate,
        f"blind GetReal total {blind:.1f} below 0.7x alternate "
        f"best response's {alternate:.1f}",
    )


@scenario(
    "alternate_selection",
    "extension: alternate best-response seed selection vs one-shot GetReal",
    check=_check_alternate,
)
def alternate_selection(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Fazeli/Tzoumas-style dynamics — the companies repeatedly observe and
    best-respond to each other's seeds — against blind equilibrium play,
    the protocol that needs no observation."""
    from repro.cascade.simulate import estimate_competitive_spread
    from repro.core.best_response import best_response_dynamics
    from repro.core.getreal import get_real

    graph = config.load(cell.dataset)
    model = config.model(cell.model)
    space = config.strategy_space(cell.model)
    rng = as_rng(config.seed + 150)
    start = [space[0].select(graph, cell.k, rng), space[1].select(graph, cell.k, rng)]
    dynamics = best_response_dynamics(
        graph,
        model,
        initial_seeds=start,
        k=cell.k,
        max_rounds=3,
        response_rounds=5,
        candidate_pool=40,
        eval_rounds=config.rounds,
        rng=rng,
    )
    equilibrium = get_real(
        graph, model, space, num_groups=2, k=cell.k,
        rounds=_half_rounds(config), rng=rng, executor=config.executor(),
        symmetry=cell.symmetry,
    )
    blind = [equilibrium.mixture.select(graph, cell.k, rng) for _ in range(2)]
    p1, p2 = estimate_competitive_spread(
        graph, model, blind, config.rounds, rng, executor=config.executor()
    )
    return {
        "alternate": {
            "p1": float(dynamics.spreads[0]),
            "p2": float(dynamics.spreads[1]),
            "total": float(sum(dynamics.spreads)),
            "converged": bool(dynamics.converged),
        },
        "getreal": {
            "p1": as_estimate(p1),
            "p2": as_estimate(p2),
            "total": estimate(p1.mean + p2.mean, math.hypot(p1.stderr, p2.stderr)),
        },
    }


def _check_blocking(metrics: dict[str, Any]) -> None:
    rows = list(metrics.values())
    for row in rows:
        require(
            row["rival_after"] <= row["rival_before"] + 1e-9,
            f"blockers raised the rival's spread {row['rival_before']:.1f} "
            f"-> {row['rival_after']:.1f}",
        )
    # More blockers block (weakly) more.
    first, last = rows[0]["blocked_fraction"], rows[-1]["blocked_fraction"]
    require(
        last >= first - 0.05,
        f"largest blocker budget blocks {last:.3f}, smallest {first:.3f}",
    )


@scenario(
    "blocking",
    "extension: influence blocking against a greedy rival (Budak/He family)",
    check=_check_blocking,
)
def blocking(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """A rival seeds ``k`` nodes with φ1; a defender places ``k/5``,
    ``k/2`` and ``k`` blockers to minimize the rival's spread."""
    from repro.core.blocking import select_blockers

    graph = config.load(cell.dataset)
    model = config.model(cell.model)
    rival = config.strategy_space(cell.model)[0].select(
        graph, cell.k, as_rng(config.seed + 130)
    )
    metrics = {}
    for budget in sorted({max(1, cell.k // 5), max(1, cell.k // 2), cell.k}):
        result = select_blockers(
            graph,
            model,
            rival_seeds=rival,
            k=budget,
            rounds=6,
            candidate_pool=40,
            rng=as_rng(config.seed + 131 + budget),
        )
        metrics[f"blockers{budget}"] = {
            "rival_before": float(result.rival_spread_before),
            "rival_after": float(result.rival_spread_after),
            "blocked_fraction": float(result.reduction),
            "blocker_spread": float(result.blocker_spread),
        }
    return metrics


def _check_budgets(metrics: dict[str, Any]) -> None:
    # The double-budget group must out-spread the single-budget one.
    require(
        metrics["p1_value"] > metrics["p2_value"],
        f"2k-budget group's value {metrics['p1_value']:.1f} not above the "
        f"k-budget group's {metrics['p2_value']:.1f}",
    )


@scenario(
    "asymmetric_budgets",
    "extension: group 1 holds twice group 2's budget (bimatrix equilibrium)",
    check=_check_budgets,
)
def asymmetric_budgets(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """The paper's footnote 5: budgets ``(2k, k)`` break the symmetry, so
    the equilibrium comes from the bimatrix solvers."""
    from repro.core.budgets import asymmetric_budget_analysis

    result = asymmetric_budget_analysis(
        config.load(cell.dataset),
        config.model(cell.model),
        config.strategy_space(cell.model),
        budgets=(2 * cell.k, cell.k),
        rounds=_half_rounds(config),
        rng=as_rng(config.seed + 90),
    )
    return {
        "kind": result.kind,
        "p1_strategy": result.mixtures[0].describe(),
        "p2_strategy": result.mixtures[1].describe(),
        "p1_value": float(result.values[0]),
        "p2_value": float(result.values[1]),
    }


def _check_collusion(metrics: dict[str, Any]) -> None:
    coalition = metrics["coalition_value"]
    require(coalition > 0, f"coalition value {coalition} not positive")
    require(
        metrics["independent_value"] > 0,
        f"independent value {metrics['independent_value']} not positive",
    )
    # Double budget concentrated in one player out-spreads the outsider.
    require(
        coalition > 0.8 * metrics["outsider_value"],
        f"coalition value {coalition:.1f} not above 0.8x the outsider's "
        f"{metrics['outsider_value']:.1f}",
    )


@scenario(
    "collusion",
    "extension: two groups pool a 2k budget against a third",
    check=_check_collusion,
)
def collusion(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Section 7's future work: the coalition's spread vs two independent
    players at the symmetric GetReal equilibrium."""
    from repro.core.collusion import collusion_analysis

    result = collusion_analysis(
        config.load(cell.dataset),
        config.model(cell.model),
        config.strategy_space(cell.model),
        k=cell.k,
        rounds=_half_rounds(config),
        rng=as_rng(config.seed + 70),
    )
    return {
        "coalition_value": float(result.coalition_value),
        "independent_value": float(result.independent_value),
        "outsider_value": float(result.outsider_value),
        "collusion_pays": bool(result.collusion_pays),
        "independent_kind": result.independent_result.kind,
    }


def _check_follower(metrics: dict[str, Any]) -> None:
    blind = metrics["blind"]["rival"]["mean"]
    informed = metrics["informed"]["rival"]["mean"]
    # The informed follower plays in the blind equilibrium's league.
    require(
        informed >= 0.8 * blind,
        f"informed follower's spread {informed:.1f} below 0.8x the blind "
        f"equilibrium's {blind:.1f}",
    )


@scenario(
    "follower_information",
    "extension: value of knowing the rival's seeds vs blind GetReal play",
    check=_check_follower,
)
def follower_information(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """The pre-GetReal line (Carnes et al.) assumes the follower *knows*
    the leader's seeds, which the paper rejects as unrealistic; compare
    that follower with a rival playing the GetReal equilibrium blindly."""
    from repro.algorithms.follower import FollowerBestResponse
    from repro.cascade.simulate import estimate_competitive_spread
    from repro.core.getreal import get_real

    graph = config.load(cell.dataset)
    model = config.model(cell.model)
    space = config.strategy_space(cell.model)
    rng = as_rng(config.seed + 110)
    rounds = max(10, config.rounds)
    leader = space[0].select(graph, cell.k, rng)
    equilibrium = get_real(
        graph, model, space, num_groups=2, k=cell.k,
        rounds=_half_rounds(config), rng=rng, executor=config.executor(),
        symmetry=cell.symmetry,
    )
    rivals = {"blind": equilibrium.mixture.select(graph, cell.k, rng)}
    follower = FollowerBestResponse(
        model, leader, rounds=6, candidate_pool=min(80, graph.num_nodes)
    )
    rivals["informed"] = follower.select(graph, cell.k, rng)
    metrics = {}
    for name, seeds in rivals.items():
        lead, rival = estimate_competitive_spread(
            graph, model, [leader, seeds], rounds, rng, executor=config.executor()
        )
        metrics[name] = {"rival": as_estimate(rival), "leader": as_estimate(lead)}
    metrics["value_of_information"] = (
        metrics["informed"]["rival"]["mean"] - metrics["blind"]["rival"]["mean"]
    )
    return metrics


def _check_three_player(metrics: dict[str, Any]) -> None:
    profiles = len(metrics["payoff"])
    require(profiles == 27, f"{profiles} payoff profiles, expected 3^3 = 27")
    require(
        metrics["solve_s"] < 1.0,
        f"NE search took {metrics['solve_s']:.3f}s (sub-second at r = z = 3)",
    )
    # The random strategy is never the recommended pure strategy.
    require(
        metrics["recommended"] != "1.000*random",
        "GetReal recommends pure RandomSeeds",
    )


@scenario(
    "three_player",
    "extension: r = z = 3 GetReal with RandomSeeds as the third strategy",
    check=_check_three_player,
)
def three_player(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """The paper's r = z = 3 remark ("requires 27 graphs"): the full
    27-profile estimation and the NE search."""
    from repro.algorithms import RandomSeeds
    from repro.core.getreal import get_real
    from repro.core.strategy import StrategySpace

    space = StrategySpace(list(config.strategy_space(cell.model)) + [RandomSeeds()])
    result = get_real(
        config.load(cell.dataset),
        config.model(cell.model),
        space,
        num_groups=3,
        k=cell.k,
        rounds=_half_rounds(config),
        rng=as_rng(config.seed + 60),
        executor=config.executor(),
        symmetry=cell.symmetry,
    )
    return getreal_metrics(result)
