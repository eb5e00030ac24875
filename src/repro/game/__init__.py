"""Game-theory substrate: normal-form games and equilibrium computation.

Implemented from scratch (no nashpy dependency): pure-NE enumeration and
dominance checks, the paper's 2×2 symmetric closed form, general symmetric
indifference solving, support enumeration and Lemke–Howson for bimatrix
games, and replicator dynamics for symmetric games of any size.
"""

from repro.game.normal_form import NormalFormGame
from repro.game.pure import (
    best_responses,
    dominant_actions,
    is_pure_equilibrium,
    pure_nash_equilibria,
    symmetric_pure_equilibria,
)
from repro.game.mixed import (
    expected_payoff_against_symmetric,
    mixed_equilibrium_2x2_symmetric,
    symmetric_mixed_equilibrium,
)
from repro.game.support_enum import support_enumeration
from repro.game.lemke_howson import lemke_howson
from repro.game.replicator import replicator_dynamics

__all__ = [
    "NormalFormGame",
    "best_responses",
    "dominant_actions",
    "is_pure_equilibrium",
    "pure_nash_equilibria",
    "symmetric_pure_equilibria",
    "expected_payoff_against_symmetric",
    "mixed_equilibrium_2x2_symmetric",
    "symmetric_mixed_equilibrium",
    "support_enumeration",
    "lemke_howson",
    "replicator_dynamics",
]
