"""Pure-strategy equilibrium analysis.

Implements the checks of the paper's Section 4.2 / Algorithm 1 lines 5–7:
best responses, (weak) dominance, full pure-NE enumeration, and the
symmetric diagonal check GetReal uses (in a symmetric game, the paper
restricts attention to equilibria where every group plays the same
strategy).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repro.errors import GameError
from repro.game.normal_form import NormalFormGame


def best_responses(
    game: NormalFormGame,
    player: int,
    others: Sequence[int],
    atol: float = 1e-9,
) -> list[int]:
    """Actions of *player* maximizing payoff given the *others*' pure actions.

    *others* lists the remaining players' actions in player order (player
    *player* skipped).
    """
    r = game.num_players
    if len(others) != r - 1:
        raise GameError(
            f"expected {r - 1} opponent actions, got {len(others)}"
        )
    payoffs = []
    for a in range(game.num_actions(player)):
        profile = list(others)
        profile.insert(player, a)
        payoffs.append(game.payoff(profile, player))
    best = max(payoffs)
    return [a for a, u in enumerate(payoffs) if u >= best - atol]


def is_pure_equilibrium(
    game: NormalFormGame,
    profile: Sequence[int],
    atol: float = 1e-9,
) -> bool:
    """True if no player can strictly gain by a unilateral deviation."""
    profile = list(profile)
    for i in range(game.num_players):
        current = game.payoff(profile, i)
        for a in range(game.num_actions(i)):
            if a == profile[i]:
                continue
            deviated = list(profile)
            deviated[i] = a
            if game.payoff(deviated, i) > current + atol:
                return False
    return True


def pure_nash_equilibria(
    game: NormalFormGame,
    atol: float = 1e-9,
) -> list[tuple[int, ...]]:
    """Enumerate all pure-strategy Nash equilibria."""
    return [
        profile for profile in game.profiles() if is_pure_equilibrium(game, profile, atol)
    ]


def dominant_actions(
    game: NormalFormGame,
    player: int,
    strict: bool = False,
    atol: float = 1e-9,
) -> list[int]:
    """Actions of *player* that (weakly or strictly) dominate all others.

    An action *a* weakly dominates when, against every combination of
    opponent actions, it does at least as well as every alternative; strict
    dominance requires strictly better against every combination.
    """
    game._check_player(player)
    z = game.num_actions(player)
    opponent_ranges = [
        range(game.num_actions(j)) for j in range(game.num_players) if j != player
    ]
    winners = []
    for a in range(z):
        dominates = True
        for b in range(z):
            if a == b:
                continue
            for others in itertools.product(*opponent_ranges):
                pa = list(others)
                pa.insert(player, a)
                pb = list(others)
                pb.insert(player, b)
                ua = game.payoff(pa, player)
                ub = game.payoff(pb, player)
                if strict and ua <= ub + atol:
                    dominates = False
                    break
                if not strict and ua < ub - atol:
                    dominates = False
                    break
            if not dominates:
                break
        if dominates:
            winners.append(a)
    return winners


def symmetric_pure_equilibria(
    game: NormalFormGame,
    atol: float = 1e-9,
) -> list[int]:
    """Diagonal equilibria of a symmetric game: actions *a* with (a,..,a) a NE.

    This is the check GetReal performs (Algorithm 1 line 5 examines only the
    *z* diagonal profiles; Nash's symmetry theorem guarantees a symmetric
    equilibrium exists, possibly mixed).
    """
    counts = set(game.payoffs.shape[:-1])
    if len(counts) != 1:
        raise GameError("symmetric check requires equal action counts")
    z = game.payoffs.shape[0]
    result = []
    for a in range(z):
        profile = (a,) * game.num_players
        if is_pure_equilibrium(game, profile, atol):
            result.append(a)
    return result


def iterated_elimination_strictly_dominated(
    game: NormalFormGame,
    atol: float = 1e-9,
) -> list[list[int]]:
    """Surviving action sets after iterated strict-dominance elimination.

    Provided for analysis/ablation; GetReal itself does not need it, but it
    is a useful diagnostic on estimated payoff tables (a strategy eliminated
    here can never appear in any equilibrium support).
    """
    surviving: list[list[int]] = [
        list(range(game.num_actions(i))) for i in range(game.num_players)
    ]
    changed = True
    while changed:
        changed = False
        for i in range(game.num_players):
            if len(surviving[i]) <= 1:
                continue
            opponent_profiles = list(
                itertools.product(
                    *(surviving[j] for j in range(game.num_players) if j != i)
                )
            )
            eliminated: list[int] = []
            for b in surviving[i]:
                for a in surviving[i]:
                    if a == b:
                        continue
                    strictly_better = True
                    for others in opponent_profiles:
                        pa = list(others)
                        pa.insert(i, a)
                        pb = list(others)
                        pb.insert(i, b)
                        if game.payoff(pa, i) <= game.payoff(pb, i) + atol:
                            strictly_better = False
                            break
                    if strictly_better:
                        eliminated.append(b)
                        break
            if eliminated:
                surviving[i] = [a for a in surviving[i] if a not in eliminated]
                changed = True
    return surviving
