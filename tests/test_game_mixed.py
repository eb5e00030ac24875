"""Tests for symmetric mixed-equilibrium computation."""

import itertools

import numpy as np
import pytest

from repro.errors import EquilibriumError, GameError
from repro.game.mixed import (
    expected_payoff_against_symmetric,
    mixed_equilibrium_2x2_symmetric,
    regret_of_symmetric_mixture,
    symmetric_mixed_equilibrium,
)
from repro.game.normal_form import NormalFormGame


def hawk_dove() -> NormalFormGame:
    a = np.array([[0.0, 3.0], [1.0, 2.0]])
    return NormalFormGame.from_bimatrix(a)


def rock_paper_scissors() -> NormalFormGame:
    a = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    return NormalFormGame.from_bimatrix(a)


def volunteers_dilemma(r: int = 3) -> NormalFormGame:
    """Symmetric r-player, 2-action game with known interior equilibrium.

    Action 0 = volunteer (payoff 1 always); action 1 = free-ride (payoff 2
    if someone else volunteers, 0 otherwise).  Indifference:
    1 = 2 (1 - (1-ρ)^{r-1}) → ρ = 1 - (1/2)^{1/(r-1)}.
    """
    shape = (2,) * r + (r,)
    tensor = np.zeros(shape)
    for profile in np.ndindex(*(2,) * r):
        for i in range(r):
            if profile[i] == 0:
                tensor[profile + (i,)] = 1.0
            else:
                others_volunteer = any(
                    profile[j] == 0 for j in range(r) if j != i
                )
                tensor[profile + (i,)] = 2.0 if others_volunteer else 0.0
    return NormalFormGame(tensor)


class TestExpectedPayoff:
    def test_pure_opponents(self):
        game = hawk_dove()
        assert expected_payoff_against_symmetric(
            game, 0, np.array([1.0, 0.0])
        ) == pytest.approx(0.0)
        assert expected_payoff_against_symmetric(
            game, 0, np.array([0.0, 1.0])
        ) == pytest.approx(3.0)

    def test_mixture_interpolates(self):
        game = hawk_dove()
        value = expected_payoff_against_symmetric(game, 0, np.array([0.5, 0.5]))
        assert value == pytest.approx(1.5)

    def test_three_player_product_weights(self):
        game = volunteers_dilemma(3)
        rho = 0.25
        mixture = np.array([rho, 1 - rho])
        # Free-riding pays 2 * P(at least one of 2 rivals volunteers).
        expected = 2.0 * (1 - (1 - rho) ** 2)
        assert expected_payoff_against_symmetric(game, 1, mixture) == pytest.approx(
            expected
        )

    def test_action_range_checked(self):
        with pytest.raises(GameError):
            expected_payoff_against_symmetric(hawk_dove(), 5, np.array([0.5, 0.5]))

    def test_mixture_shape_checked(self):
        with pytest.raises(GameError):
            expected_payoff_against_symmetric(hawk_dove(), 0, np.array([1.0]))


class TestClosedForm2x2:
    def test_hawk_dove(self):
        # Indifference: rho*0 + (1-rho)*3 = rho*1 + (1-rho)*2 -> rho = 1/2.
        mixture = mixed_equilibrium_2x2_symmetric(hawk_dove())
        assert np.allclose(mixture, [0.5, 0.5])

    def test_matches_paper_equation3(self):
        """ρ = (γh − αg) / (γh − αg + λg − βh) from the paper."""
        g, h = 120.0, 100.0
        # Anti-coordination regime (βh > λg, αg > γh): interior ρ exists.
        lam, gamma, alpha, beta = 0.52, 0.55, 0.60, 0.65
        a = np.array([[lam * g, alpha * g], [beta * h, gamma * h]])
        game = NormalFormGame.from_bimatrix(a)
        expected_rho = (gamma * h - alpha * g) / (
            (gamma * h - alpha * g) + (lam * g - beta * h)
        )
        assert 0 <= expected_rho <= 1
        mixture = mixed_equilibrium_2x2_symmetric(game)
        assert mixture[0] == pytest.approx(expected_rho)

    def test_dominant_game_has_no_interior(self):
        a = np.array([[3.0, 0.0], [5.0, 1.0]])  # PD: defect dominates
        with pytest.raises(EquilibriumError, match="no interior"):
            mixed_equilibrium_2x2_symmetric(NormalFormGame.from_bimatrix(a))

    def test_degenerate_game(self):
        a = np.ones((2, 2))
        with pytest.raises(EquilibriumError, match="degenerate"):
            mixed_equilibrium_2x2_symmetric(NormalFormGame.from_bimatrix(a))

    def test_requires_2x2(self):
        with pytest.raises(GameError):
            mixed_equilibrium_2x2_symmetric(rock_paper_scissors())


class TestSymmetricMixedEquilibrium:
    def test_hawk_dove_interior(self):
        mixture = symmetric_mixed_equilibrium(hawk_dove())
        assert np.allclose(mixture, [0.5, 0.5], atol=1e-6)

    def test_pd_returns_pure_defect(self):
        a = np.array([[3.0, 0.0], [5.0, 1.0]])
        mixture = symmetric_mixed_equilibrium(NormalFormGame.from_bimatrix(a))
        assert np.allclose(mixture, [0.0, 1.0])

    def test_coordination_returns_a_pure_end(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0]])
        mixture = symmetric_mixed_equilibrium(NormalFormGame.from_bimatrix(a))
        # Either pure coordination point is a valid symmetric NE.
        assert np.allclose(mixture, [1, 0]) or np.allclose(mixture, [0, 1])

    def test_rps_uniform(self):
        mixture = symmetric_mixed_equilibrium(rock_paper_scissors())
        assert np.allclose(mixture, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)

    def test_volunteers_dilemma_three_players(self):
        game = volunteers_dilemma(3)
        mixture = symmetric_mixed_equilibrium(game)
        expected = 1 - (0.5) ** 0.5
        assert mixture[0] == pytest.approx(expected, abs=1e-6)

    def test_volunteers_dilemma_four_players(self):
        game = volunteers_dilemma(4)
        mixture = symmetric_mixed_equilibrium(game)
        expected = 1 - (0.5) ** (1 / 3)
        assert mixture[0] == pytest.approx(expected, abs=1e-6)

    def test_single_action(self):
        game = NormalFormGame.from_bimatrix(np.array([[1.0]]))
        assert symmetric_mixed_equilibrium(game).tolist() == [1.0]

    def test_result_has_zero_regret(self):
        for game in (hawk_dove(), rock_paper_scissors(), volunteers_dilemma(3)):
            mixture = symmetric_mixed_equilibrium(game)
            assert regret_of_symmetric_mixture(game, mixture) <= 1e-6

    def test_requires_square(self):
        game = NormalFormGame.from_bimatrix(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(GameError):
            symmetric_mixed_equilibrium(game)

    def test_partial_support_three_actions(self):
        # Action 2 strictly dominated; equilibrium mixes only 0 and 1.
        a = np.array(
            [[0.0, 3.0, 5.0], [1.0, 2.0, 5.0], [-1.0, -1.0, -1.0]]
        )
        game = NormalFormGame.from_bimatrix(a)
        mixture = symmetric_mixed_equilibrium(game)
        assert mixture[2] == pytest.approx(0.0, abs=1e-8)
        assert regret_of_symmetric_mixture(game, mixture) <= 1e-6


class TestRegret:
    def test_equilibrium_regret_zero(self):
        assert regret_of_symmetric_mixture(
            hawk_dove(), np.array([0.5, 0.5])
        ) == pytest.approx(0.0, abs=1e-12)

    def test_off_equilibrium_regret_positive(self):
        assert regret_of_symmetric_mixture(hawk_dove(), np.array([1.0, 0.0])) > 0


def count_game(z: int, r: int, payoff) -> NormalFormGame:
    """Symmetric r-player game from ``payoff(action, rival action counts)``."""
    tensor = np.zeros((z,) * r + (r,))
    for profile in itertools.product(range(z), repeat=r):
        for i in range(r):
            rivals = profile[:i] + profile[i + 1 :]
            counts = tuple(rivals.count(a) for a in range(z))
            tensor[profile + (i,)] = payoff(profile[i], counts)
    return NormalFormGame(tensor)


def two_action(r: int, u0, u1) -> NormalFormGame:
    """Actions 0/1 pay ``u0[m]``/``u1[m]`` when m rivals play action 0."""
    return count_game(2, r, lambda a, counts: (u0, u1)[a][counts[0]])


RPS_ISH = [[0.0, -1.0, 2.0], [2.0, 0.0, -1.0], [-1.0, 3.0, 0.0]]


def crowded_rps(action, counts):
    crowding = 0.5 if counts[action] == 2 else 0.0
    return sum(RPS_ISH[action][b] * counts[b] for b in range(3)) - crowding


def bimatrix(rows) -> NormalFormGame:
    return NormalFormGame.from_bimatrix(np.array(rows, dtype=float))


#: Equilibria computed with the scipy-based solvers (brentq / fsolve) the
#: numpy root finders replaced; both must agree to 1e-9.
PINNED = {
    "z2r2_hawk_dove": (hawk_dove, [0.5, 0.5]),
    "z2r2_equation3": (
        lambda: bimatrix([[0.52 * 120, 0.60 * 120], [0.65 * 100, 0.55 * 100]]),
        [0.8673469387755104, 0.1326530612244896],
    ),
    "z2r2_prisoners_dilemma": (lambda: bimatrix([[3.0, 0.0], [5.0, 1.0]]), [0.0, 1.0]),
    "z2r2_coordination": (lambda: bimatrix([[2.0, 0.0], [0.0, 1.0]]), [1.0, 0.0]),
    "z2r3_volunteers": (lambda: volunteers_dilemma(3), [0.2928932188134525, 0.7071067811865475]),
    "z2r3_counts": (
        lambda: two_action(3, [3.0, 1.5, 0.4], [1.0, 2.2, 2.9]),
        [0.39658344136445084, 0.6034165586355491],
    ),
    "z2r4_volunteers": (lambda: volunteers_dilemma(4), [0.20629947401590057, 0.7937005259840995]),
    # The gap 1 - 12ρ + 30ρ² - 20ρ³ crosses zero at 0.113, 0.5 and 0.887.
    "z2r4_three_crossings": (
        lambda: two_action(4, [1.0, -3.0, 3.0, -1.0], [0.0, 0.0, 0.0, 0.0]),
        [0.5, 0.5],
    ),
    "z2r4_counts": (
        lambda: two_action(4, [5.0, 3.1, 2.0, 0.7], [1.2, 2.0, 2.6, 3.3]),
        [0.5560610594418244, 0.4439389405581756],
    ),
    "z3r2_rps": (rock_paper_scissors, [1 / 3, 1 / 3, 1 / 3]),
    "z3r2_rps_ish": (
        lambda: bimatrix(RPS_ISH),
        [0.38461538461538464, 0.2692307692307692, 0.34615384615384615],
    ),
    "z3r2_two_action_support": (
        lambda: bimatrix([[0.0, 3.0, 5.0], [1.0, 2.0, 5.0], [-1.0, -1.0, -2.0]]),
        [0.5, 0.5, 0.0],
    ),
    "z3r3_crowded_rps": (
        lambda: count_game(3, 3, crowded_rps),
        [0.38128056294905327, 0.26883022262065365, 0.3498892144302931],
    ),
    "degenerate_z2_constant": (lambda: bimatrix(np.ones((2, 2))), [1.0, 0.0]),
    "degenerate_z3_constant": (lambda: bimatrix(np.ones((3, 3))), [1 / 3, 1 / 3, 1 / 3]),
    "corner_z2_gap_zero_at_one": (lambda: bimatrix([[1.0, 0.0], [1.0, 2.0]]), [1.0, 0.0]),
    "corner_z2_gap_zero_at_zero": (lambda: bimatrix([[0.0, 1.0], [1.0, 1.0]]), [0.0, 1.0]),
}


class TestPinnedEquilibria:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_pinned_value(self, name):
        make, expected = PINNED[name]
        game = make()
        assert game.is_symmetric()
        mixture = symmetric_mixed_equilibrium(game)
        np.testing.assert_allclose(mixture, expected, rtol=0, atol=1e-9)
