"""Symmetric mixed-strategy equilibria.

Nash (1951) proved every finite symmetric game has a symmetric equilibrium;
the paper (Section 4.3) leans on this to guarantee GetReal always returns a
strategy.  This module computes such equilibria:

* :func:`mixed_equilibrium_2x2_symmetric` — the closed form of the paper's
  Equation (3) for ``r = z = 2``;
* :func:`symmetric_mixed_equilibrium` — general symmetric games: polynomial
  root finding for two actions (any number of players), support enumeration
  with indifference solving for more actions, and replicator dynamics as a
  last resort.

Both root finders are plain numpy/python: Brent's method on the two-action
indifference gap (bracketed by the pure ends) and a Newton iteration with a
finite-difference Jacobian on the indifference residual of a support.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable

import numpy as np

from repro.errors import EquilibriumError, GameError
from repro.game.normal_form import NormalFormGame
from repro.utils.validation import nearly_zero


def expected_payoff_against_symmetric(
    game: NormalFormGame,
    action: int,
    mixture: np.ndarray,
) -> float:
    """Player 0's expected payoff for *action* when all rivals play *mixture*.

    Computed exactly by enumerating the ``z^(r-1)`` opponent profiles —
    cheap for the game sizes GetReal targets (z, r ≤ 4, cf. the paper's
    NP-completeness discussion for larger games).
    """
    z = game.num_actions(0)
    if not 0 <= action < z:
        raise GameError(f"action {action} out of range [0, {z})")
    mixture = np.asarray(mixture, dtype=float)
    if mixture.shape != (z,):
        raise GameError(f"mixture must have {z} entries, got shape {mixture.shape}")
    r = game.num_players
    total = 0.0
    for others in itertools.product(range(z), repeat=r - 1):
        weight = 1.0
        for a in others:
            weight *= mixture[a]
        if nearly_zero(weight):
            continue
        total += weight * game.payoff((action, *others), 0)
    return total


def regret_of_symmetric_mixture(game: NormalFormGame, mixture: np.ndarray) -> float:
    """Max gain any player gets by deviating from everyone playing *mixture*."""
    z = game.num_actions(0)
    payoffs = np.array(
        [expected_payoff_against_symmetric(game, a, mixture) for a in range(z)]
    )
    current = float(np.dot(mixture, payoffs))
    return float(payoffs.max() - current)


def mixed_equilibrium_2x2_symmetric(
    game: NormalFormGame,
    atol: float = 1e-9,
) -> np.ndarray:
    """The paper's Equation (3): ρ = (γh − αg) / (γh − αg + λg − βh).

    In bimatrix notation with row-player matrix ``A``::

        ρ = (A[1,1] − A[0,1]) / ((A[1,1] − A[0,1]) + (A[0,0] − A[1,0]))

    Raises :class:`EquilibriumError` when the game has no interior mixed
    equilibrium (ρ outside (0, 1) or a degenerate denominator) — the pure
    analysis should be used in that case.
    """
    if game.num_players != 2 or game.num_actions(0) != 2 or game.num_actions(1) != 2:
        raise GameError("closed form applies to 2-player, 2-action games only")
    a = game.payoffs[..., 0]
    numerator = a[1, 1] - a[0, 1]
    denominator = (a[1, 1] - a[0, 1]) + (a[0, 0] - a[1, 0])
    if abs(denominator) <= atol:
        raise EquilibriumError(
            "degenerate game: indifference holds for every mixture (or none)"
        )
    rho = numerator / denominator
    if not 0.0 <= rho <= 1.0:
        raise EquilibriumError(
            f"no interior mixed equilibrium: closed form gives rho={rho:.6f}"
        )
    return np.array([rho, 1.0 - rho])


def _two_action_symmetric(game: NormalFormGame, atol: float) -> np.ndarray | None:
    """Symmetric equilibrium of a z=2 symmetric game (any r): root of a polynomial."""

    def diff(rho: float) -> float:
        mixture = np.array([rho, 1.0 - rho])
        return expected_payoff_against_symmetric(
            game, 0, mixture
        ) - expected_payoff_against_symmetric(game, 1, mixture)

    # Pure ends first: all-0 is an equilibrium iff deviating to 1 doesn't pay.
    if diff(1.0) >= -atol:
        return np.array([1.0, 0.0])
    if diff(0.0) <= atol:
        return np.array([0.0, 1.0])
    # diff(0) > atol and diff(1) < -atol, so [0, 1] brackets a sign change.
    root = _brent_root(diff, 0.0, 1.0, xtol=1e-12)
    return np.array([root, 1.0 - root])


def _brent_root(
    f: Callable[[float], float], lo: float, hi: float, xtol: float
) -> float:
    """A root of *f* in ``[lo, hi]``, where *f* changes sign, by Brent's method.

    Secant / inverse quadratic steps with a bisection safeguard (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4), taken
    in the order of the classic ``zeroin``/``brentq`` routine, so a gap
    with several crossings converges to the crossing that routine finds.
    Stops once the bracket is narrower than ``xtol + 4 eps |x|``.
    """
    rtol = 4 * np.finfo(float).eps
    x_pre, x_cur = lo, hi
    f_pre, f_cur = f(x_pre), f(x_cur)
    if f_pre == 0:
        return x_pre
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(100):
        if f_pre != 0 and f_cur != 0 and (f_pre < 0) != (f_cur < 0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        tol = (xtol + rtol * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0 or abs(s_bis) < tol:
            return x_cur
        if abs(s_pre) > tol and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre)
                )
            if 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - tol):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        # Never step by less than the tolerance; s_bis points into the bracket.
        x_cur += s_cur if abs(s_cur) > tol else math.copysign(tol, s_bis)
        f_cur = f(x_cur)
    return x_cur


def _support_solve(
    game: NormalFormGame,
    support: tuple[int, ...],
    atol: float,
) -> np.ndarray | None:
    """Solve the indifference conditions restricted to *support*; verify NE."""
    z = game.num_actions(0)
    s = len(support)
    # Player 0's payoff tensor for the support's actions; contracting every
    # rival axis with the mixture gives each action's expected payoff.
    support_payoffs = game.payoffs[list(support), ..., 0]

    def residual(free: np.ndarray) -> np.ndarray:
        mixture = np.zeros(z)
        mixture[list(support)] = np.append(free, 1.0 - free.sum())
        payoffs = support_payoffs
        for _ in range(game.num_players - 1):
            payoffs = payoffs @ mixture
        return payoffs[:-1] - payoffs[-1]

    if s == 1:
        mixture = np.zeros(z)
        mixture[support[0]] = 1.0
        return mixture if regret_of_symmetric_mixture(game, mixture) <= atol else None

    solution = _newton_root(residual, np.full(s - 1, 1.0 / s), xtol=1e-12)
    if solution is None:
        return None
    weights = np.concatenate([solution, [1.0 - solution.sum()]])
    if np.any(weights < -1e-9):
        return None
    weights = np.clip(weights, 0.0, None)
    if weights.sum() <= 0:
        return None
    weights /= weights.sum()
    mixture = np.zeros(z)
    for idx, a in enumerate(support):
        mixture[a] = weights[idx]
    if regret_of_symmetric_mixture(game, mixture) <= max(atol, 1e-6):
        return mixture
    return None


#: Forward-difference step of :func:`_newton_root`, relative to the iterate.
_FD_STEP = math.sqrt(np.finfo(float).eps)


def _newton_root(
    residual: Callable[[np.ndarray], np.ndarray], start: np.ndarray, xtol: float
) -> np.ndarray | None:
    """A root of the square system *residual* near *start*, or ``None``.

    Newton's method with a forward-difference Jacobian; converged when a
    step is below ``xtol`` relative to the iterate or the residual vanishes.
    ``None`` on a singular Jacobian or a non-finite value, and once five
    steps in a row fail to cut the residual norm below 0.9 of its best (a
    system with no root near *start* would otherwise wander for all 100).
    """
    x = np.array(start, dtype=float)
    best = math.inf
    stalled = 0
    for _ in range(100):
        value = residual(x)
        if not np.all(np.isfinite(value)):
            return None
        if not value.any():
            return x
        size = float(np.linalg.norm(value))
        if size < 0.9 * best:
            best, stalled = size, 0
        else:
            stalled += 1
            if stalled == 5:
                return None
        jacobian = np.empty((value.size, x.size))
        for j in range(x.size):
            shifted = x.copy()
            shifted[j] += _FD_STEP * max(abs(x[j]), 1.0)
            jacobian[:, j] = (residual(shifted) - value) / (shifted[j] - x[j])
        try:
            step = np.linalg.solve(jacobian, -value)
        except np.linalg.LinAlgError:
            return None
        x = x + step
        if np.linalg.norm(step) <= xtol * max(float(np.linalg.norm(x)), xtol):
            return x
    return None


def symmetric_mixed_equilibrium(
    game: NormalFormGame,
    atol: float = 1e-8,
    prefer_interior: bool = True,
) -> np.ndarray:
    """A symmetric (possibly degenerate) equilibrium mixture of a symmetric game.

    Strategy: exact closed form / root finding for two actions; support
    enumeration (largest supports first when *prefer_interior*) with
    indifference solving otherwise; replicator dynamics as a fallback.
    Raises :class:`EquilibriumError` only if every method fails, which for a
    genuinely symmetric game indicates numerically hostile payoffs.
    """
    counts = set(game.payoffs.shape[:-1])
    if len(counts) != 1:
        raise GameError("symmetric equilibrium requires equal action counts")
    z = game.num_actions(0)

    if z == 1:
        return np.array([1.0])
    if z == 2:
        result = _two_action_symmetric(game, atol)
        if result is not None:
            return result

    supports = [
        support
        for size in range(z, 0, -1)
        for support in itertools.combinations(range(z), size)
    ]
    if not prefer_interior:
        supports = sorted(supports, key=len)
    for support in supports:
        mixture = _support_solve(game, support, atol)
        if mixture is not None:
            return mixture

    from repro.game.replicator import replicator_dynamics

    mixture = replicator_dynamics(game)
    if regret_of_symmetric_mixture(game, mixture) <= 1e-4:
        return mixture
    raise EquilibriumError(
        "failed to locate a symmetric equilibrium; payoffs may be too noisy"
    )
