"""The GetReal algorithm (Algorithm 1 of the paper).

Given a competitive network, a group space Ψ of size *r* and a strategy
space Φ of size *z*:

1. estimate the expected influence ``σ_i(φ_t1 .. φ_tr)`` of every group
   under every r-order strategy profile (Monte-Carlo, lines 2–4);
2. look for a **symmetric pure-strategy Nash equilibrium**: a diagonal
   profile ``(φ_i, .., φ_i)`` from which no group gains by deviating
   (lines 5–7; Nash's symmetry theorem justifies checking only diagonals);
3. otherwise solve the indifference equation system for the **symmetric
   mixed equilibrium** (lines 8–10; Equation (3) in the 2×2 case).

The returned :class:`GetRealResult` carries the recommended
:class:`MixedStrategy` (one-hot for a pure equilibrium), the estimated
payoff table, and the NE-search time — the quantity the paper's Table 4
reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.algorithms.base import SeedSelector
from repro.cascade.base import CascadeModel
from repro.cascade.competitive import ClaimRule, TieBreakRule
from repro.core.payoff import PayoffTable, estimate_payoff_table, resolve_symmetry
from repro.core.strategy import MixedStrategy, StrategySpace
from repro.exec.executor import Executor, resolve_executor
from repro.game.mixed import (
    regret_of_symmetric_mixture,
    symmetric_mixed_equilibrium,
)
from repro.game.normal_form import NormalFormGame
from repro.game.pure import is_pure_equilibrium
from repro.graphs.digraph import DiGraph
from repro import contracts
from repro.obs.journal import RunJournal, current_journal
from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.utils.rng import RandomSource
from repro.utils.timing import Stopwatch

_LOG = get_logger("core.getreal")


@dataclass(frozen=True)
class GetRealResult:
    """Outcome of a GetReal run.

    Attributes
    ----------
    kind:
        ``"pure"`` if a symmetric pure NE was found, else ``"mixed"``.
    mixture:
        The recommended strategy for every group (one-hot when pure).
    game:
        The estimated normal-form game the equilibrium was computed on.
    payoff_table:
        Full Monte-Carlo table (None when solving a pre-built game).
    pure_index:
        Index of the pure equilibrium strategy, or None.
    solve_seconds:
        Wall-clock time of the NE search alone (Algorithm 1 lines 5–11) —
        the paper's Table 4 quantity.
    regret:
        Residual max-deviation gain at the returned mixture (0 for an exact
        pure equilibrium); a noise diagnostic for estimated games.
    """

    kind: str
    mixture: MixedStrategy
    game: NormalFormGame
    payoff_table: PayoffTable | None
    pure_index: int | None
    solve_seconds: float
    regret: float

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.kind == "pure":
            name = self.mixture.space[self.pure_index].name
            return f"pure NE: every group plays {name}"
        return f"mixed NE: {self.mixture.describe()}"


def symmetrize(game: NormalFormGame) -> NormalFormGame:
    """Average out estimation noise by enforcing player symmetry.

    For a symmetric game, player *i*'s payoff depends only on its own action
    and the *multiset* of rivals' actions; Monte-Carlo estimates break the
    identity by noise.  Pooling every (own action, rival multiset) cell
    yields the symmetric game closest to the estimates.
    """
    z_counts = set(game.payoffs.shape[:-1])
    if len(z_counts) != 1:
        raise ValueError("symmetrize requires equal action counts")
    r = game.num_players

    sums: dict[tuple[int, tuple[int, ...]], float] = {}
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for profile in game.profiles():
        for i in range(r):
            others = tuple(sorted(profile[:i] + profile[i + 1:]))
            key = (profile[i], others)
            sums[key] = sums.get(key, 0.0) + game.payoffs[profile][i]
            counts[key] = counts.get(key, 0) + 1

    tensor = np.zeros_like(game.payoffs)
    for profile in game.profiles():
        for i in range(r):
            others = tuple(sorted(profile[:i] + profile[i + 1:]))
            key = (profile[i], others)
            tensor[profile + (i,)] = sums[key] / counts[key]
    return NormalFormGame(tensor, action_labels=game.action_labels)


def solve_strategy_game(
    game: NormalFormGame,
    space: StrategySpace,
    payoff_table: PayoffTable | None = None,
    atol: float = 1e-9,
) -> GetRealResult:
    """Algorithm 1 lines 5–11: find the symmetric pure or mixed NE of *game*."""
    if game.num_actions(0) != space.size:
        raise ValueError(
            f"game has {game.num_actions(0)} actions but the space has "
            f"{space.size} strategies"
        )
    watch = Stopwatch()
    symmetric_game: NormalFormGame | None = None
    with watch:
        # Lines 5-7: examine the z diagonal profiles for a pure equilibrium.
        z = space.size
        r = game.num_players
        pure_candidates = [
            a for a in range(z) if is_pure_equilibrium(game, (a,) * r, atol)
        ]
        if pure_candidates:
            # Several diagonal equilibria can coexist (coordination games);
            # recommend the one with the highest expected influence.
            best = max(
                pure_candidates, key=lambda a: game.payoff((a,) * r, 0)
            )
            mixture = MixedStrategy.pure(space, best)
            kind, pure_index = "pure", best
        else:
            # Lines 8-10: symmetric mixed equilibrium via indifference.
            symmetric_game = symmetrize(game)
            weights = symmetric_mixed_equilibrium(symmetric_game)
            mixture = MixedStrategy(space, weights)
            if mixture.is_pure:
                # The indifference solver landed on a corner: a diagonal
                # profile that is an equilibrium of the *symmetrized* game
                # even though estimation noise hid it from the raw check.
                # Report it as the pure strategy it is.
                kind = "pure"
                pure_index = int(np.argmax(weights))
            else:
                kind, pure_index = "mixed", None
    # Regret is always evaluated on the symmetrized game; reuse the mixed
    # branch's tensor instead of recomputing it (the pure branch, which
    # never symmetrized, builds it here once).
    if symmetric_game is None:
        symmetric_game = symmetrize(game)
    regret = regret_of_symmetric_mixture(symmetric_game, mixture.probabilities)
    return GetRealResult(
        kind=kind,
        mixture=mixture,
        game=game,
        payoff_table=payoff_table,
        pure_index=pure_index,
        solve_seconds=watch.elapsed,
        regret=max(0.0, regret),
    )


def get_real(
    graph: DiGraph,
    model: CascadeModel,
    strategies: StrategySpace | Sequence[SeedSelector],
    num_groups: int = 2,
    k: int = 30,
    rounds: int = 30,
    seed_draws: int = 1,
    rng: RandomSource = None,
    tie_break: TieBreakRule = TieBreakRule.UNIFORM,
    claim_rule: ClaimRule = ClaimRule.PROPORTIONAL,
    journal: RunJournal | None = None,
    executor: Executor | None = None,
    symmetry: str | None = None,
) -> GetRealResult:
    """Run the full GetReal pipeline: estimate payoffs, then find the NE.

    Parameters mirror the paper's setting: *num_groups* rival companies
    each picking *k* seeds using some strategy from *strategies*, diffusing
    under *model* on *graph*.  *symmetry* selects full-profile vs
    symmetric-reduced payoff estimation (argument > ``REPRO_SYMMETRY`` >
    full; see :func:`repro.core.payoff.estimate_payoff_table`).

    When *journal* is given (or attached via
    :func:`repro.obs.attach_journal`), the run is journalled end to end:
    ``run_start`` with the full parameterization and the resolved
    backend, workers, symmetry and contracts setting, one
    ``profile_start``/``profile_done`` pair per strategy profile,
    ``equilibrium_found`` with the recommendation, and ``run_end``.
    """
    space = (
        strategies
        if isinstance(strategies, StrategySpace)
        else StrategySpace(list(strategies))
    )
    sink = journal if journal is not None else current_journal()
    _LOG.info(
        "get_real: %d nodes / %d arcs, strategies=%s, r=%d, k=%d, rounds=%d",
        graph.num_nodes,
        graph.num_edges,
        space.labels,
        num_groups,
        k,
        rounds,
    )
    started = time.perf_counter()
    if sink is not None:
        resolved_executor = resolve_executor(executor)
        sink.run_start(
            "get_real",
            graph_nodes=graph.num_nodes,
            graph_edges=graph.num_edges,
            model=type(model).__name__,
            strategies=space.labels,
            num_groups=num_groups,
            k=k,
            rounds=rounds,
            seed_draws=seed_draws,
            tie_break=tie_break.value,
            claim_rule=claim_rule.value,
            symmetry=resolve_symmetry(symmetry),
            backend=resolved_executor.backend_name,
            workers=resolved_executor.workers,
            contracts=contracts.enabled(),
        )
    try:
        # The run-level root span: every batch span (and, transitively,
        # every exec.job span on any backend) parents under this one, so
        # ``repro obs trace`` shows the whole pipeline as a single tree.
        with span(
            "getreal.run",
            journal=True,
            strategies=len(space.labels),
            num_groups=num_groups,
            k=k,
            rounds=rounds,
        ):
            table = estimate_payoff_table(
                graph,
                model,
                space,
                num_groups=num_groups,
                k=k,
                rounds=rounds,
                seed_draws=seed_draws,
                rng=rng,
                tie_break=tie_break,
                claim_rule=claim_rule,
                journal=sink,
                executor=executor,
                symmetry=symmetry,
            )
            result = solve_strategy_game(
                table.to_game(), space, payoff_table=table
            )
    except Exception as exc:
        if sink is not None:
            sink.run_end(
                status="error",
                duration_seconds=time.perf_counter() - started,
                error=f"{type(exc).__name__}: {exc}",
            )
        raise
    _LOG.info(
        "equilibrium: %s (regret=%.4f, NE search %.2f ms)",
        result.describe(),
        result.regret,
        result.solve_seconds * 1000,
    )
    if sink is not None:
        sink.equilibrium_found(
            kind=result.kind,
            probabilities=result.mixture.probabilities,
            labels=space.labels,
            regret=result.regret,
            solve_seconds=result.solve_seconds,
        )
        sink.run_end(
            status="ok",
            duration_seconds=time.perf_counter() - started,
        )
    return result
