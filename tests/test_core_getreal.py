"""Tests for the GetReal algorithm (Algorithm 1)."""

import numpy as np
import pytest

from repro.algorithms.degree_discount import DegreeDiscount
from repro.algorithms.heuristics import RandomSeeds
from repro.cascade.ic import IndependentCascade
from repro.core.getreal import (
    GetRealResult,
    get_real,
    solve_strategy_game,
    symmetrize,
)
from repro.core.strategy import StrategySpace
from repro.exec.executor import Executor
from repro.game.normal_form import NormalFormGame
from repro.obs.journal import RunJournal, read_journal


@pytest.fixture
def space() -> StrategySpace:
    return StrategySpace([DegreeDiscount(0.1), RandomSeeds()])


def game_from_matrix(a: np.ndarray, labels=None) -> NormalFormGame:
    return NormalFormGame.from_bimatrix(a, action_labels=labels)


class TestSymmetrize:
    def test_symmetric_game_unchanged(self):
        a = np.array([[2.0, 0.0], [3.0, 1.0]])
        game = game_from_matrix(a)
        sym = symmetrize(game)
        assert np.allclose(sym.payoffs, game.payoffs)

    def test_noisy_game_becomes_symmetric(self):
        a = np.array([[2.0, 0.0], [3.0, 1.0]])
        b = a.T + np.array([[0.2, -0.1], [0.1, -0.2]])
        game = NormalFormGame(np.stack([a, b], axis=-1))
        sym = symmetrize(game)
        assert sym.is_symmetric()

    def test_pools_diagonal_entries(self):
        # Diagonal profile (0, 0): players saw 10 and 12 -> both become 11.
        a = np.array([[10.0, 5.0], [6.0, 2.0]])
        b = np.array([[12.0, 7.0], [4.0, 2.0]])
        game = NormalFormGame(np.stack([a, b], axis=-1))
        sym = symmetrize(game)
        assert sym.payoff((0, 0), 0) == pytest.approx(11.0)
        assert sym.payoff((0, 0), 1) == pytest.approx(11.0)

    def test_three_players(self):
        rng = np.random.default_rng(0)
        tensor = rng.random((2, 2, 2, 3))
        sym = symmetrize(NormalFormGame(tensor))
        assert sym.is_symmetric()


class TestSolveStrategyGame:
    def test_dominant_diagonal_returns_pure(self, space):
        # lambda*g >= beta*h and alpha*g >= gamma*h -> (phi1, phi1) pure NE.
        a = np.array([[55.0, 70.0], [40.0, 44.0]])
        result = solve_strategy_game(game_from_matrix(a), space)
        assert result.kind == "pure"
        assert result.pure_index == 0
        assert result.mixture.is_pure
        assert result.regret == pytest.approx(0.0, abs=1e-9)

    def test_second_strategy_can_win(self, space):
        a = np.array([[44.0, 40.0], [70.0, 55.0]])
        result = solve_strategy_game(game_from_matrix(a), space)
        assert result.kind == "pure"
        assert result.pure_index == 1

    def test_hawk_dove_payoffs_give_mixed(self, space):
        a = np.array([[0.0, 3.0], [1.0, 2.0]])
        result = solve_strategy_game(game_from_matrix(a), space)
        assert result.kind == "mixed"
        assert result.pure_index is None
        assert np.allclose(result.mixture.probabilities, [0.5, 0.5], atol=1e-6)

    def test_coordination_picks_higher_payoff_diagonal(self, space):
        a = np.array([[5.0, 0.0], [0.0, 3.0]])
        result = solve_strategy_game(game_from_matrix(a), space)
        assert result.kind == "pure"
        assert result.pure_index == 0  # 5 > 3

    def test_solve_seconds_recorded(self, space):
        a = np.array([[55.0, 70.0], [40.0, 44.0]])
        result = solve_strategy_game(game_from_matrix(a), space)
        assert result.solve_seconds >= 0.0

    def test_describe_pure(self, space):
        a = np.array([[55.0, 70.0], [40.0, 44.0]])
        result = solve_strategy_game(game_from_matrix(a), space)
        assert "ddic" in result.describe()
        assert result.describe().startswith("pure NE")

    def test_describe_mixed(self, space):
        a = np.array([[0.0, 3.0], [1.0, 2.0]])
        result = solve_strategy_game(game_from_matrix(a), space)
        assert result.describe().startswith("mixed NE")

    def test_action_count_mismatch_rejected(self, space):
        game = NormalFormGame.from_bimatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="strategies"):
            solve_strategy_game(game, space)

    def test_three_player_volunteers_mixed(self):
        from tests.test_game_mixed import volunteers_dilemma

        space = StrategySpace([DegreeDiscount(0.1), RandomSeeds()])
        result = solve_strategy_game(volunteers_dilemma(3), space)
        assert result.kind == "mixed"
        assert result.mixture.probabilities[0] == pytest.approx(
            1 - 0.5**0.5, abs=1e-6
        )

    def test_paper_mixed_formula_reproduced(self, space):
        """Build Table 2 from λ,γ,α,β with no pure NE and check ρ matches
        Equation (3)."""
        g, h = 120.0, 100.0
        # Anti-coordination: βh > λg and αg > γh, so no diagonal pure NE.
        lam, gamma, alpha, beta = 0.52, 0.55, 0.60, 0.65
        a = np.array([[lam * g, alpha * g], [beta * h, gamma * h]])
        assert beta * h > lam * g and alpha * g > gamma * h
        rho = (gamma * h - alpha * g) / (
            (gamma * h - alpha * g) + (lam * g - beta * h)
        )
        result = solve_strategy_game(game_from_matrix(a), space)
        assert result.kind == "mixed"
        assert result.mixture.probabilities[0] == pytest.approx(rho, abs=1e-9)


class TestGetRealEndToEnd:
    def test_returns_result(self, karate, space):
        result = get_real(
            karate, IndependentCascade(0.1), space, k=3, rounds=10, rng=0
        )
        assert isinstance(result, GetRealResult)
        assert result.kind in {"pure", "mixed"}
        assert result.payoff_table is not None

    def test_accepts_plain_selector_list(self, karate):
        result = get_real(
            karate,
            IndependentCascade(0.1),
            [DegreeDiscount(0.1), RandomSeeds()],
            k=3,
            rounds=6,
            rng=1,
        )
        assert result.mixture.space.size == 2

    def test_strong_vs_weak_selects_strong(self, karate):
        """DegreeDiscount strictly beats random seeding on karate under IC,
        so GetReal must recommend it as a pure equilibrium."""
        space = StrategySpace([DegreeDiscount(0.15), RandomSeeds()])
        result = get_real(
            karate, IndependentCascade(0.15), space, k=3, rounds=150, rng=2
        )
        assert result.kind == "pure"
        assert result.mixture.space[result.pure_index].name == "ddic"

    def test_three_groups(self, karate, space):
        result = get_real(
            karate,
            IndependentCascade(0.1),
            space,
            num_groups=3,
            k=2,
            rounds=6,
            rng=3,
        )
        assert result.game.num_players == 3

    def test_mixture_usable_for_selection(self, karate, space):
        result = get_real(
            karate, IndependentCascade(0.1), space, k=3, rounds=8, rng=4
        )
        seeds = result.mixture.select(karate, 3, rng=5)
        assert len(seeds) == 3

    def test_reproducible(self, karate, space):
        a = get_real(karate, IndependentCascade(0.1), space, k=3, rounds=8, rng=6)
        b = get_real(karate, IndependentCascade(0.1), space, k=3, rounds=8, rng=6)
        assert np.allclose(a.mixture.probabilities, b.mixture.probabilities)
        assert a.kind == b.kind

    def test_run_start_records_resolved_config(self, karate, space, tmp_path, monkeypatch):
        # The explicit executor beats REPRO_BACKEND/REPRO_WORKERS; the
        # switches without an explicit argument come from the environment.
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_SYMMETRY", "reduce")
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal, Executor("process", workers=2) as executor:
            get_real(
                karate,
                IndependentCascade(0.1),
                space,
                k=3,
                rounds=4,
                rng=7,
                journal=journal,
                executor=executor,
            )
        (start,) = [e for e in read_journal(path) if e["event"] == "run_start"]
        assert (start["backend"], start["workers"]) == ("process", 2)
        assert start["symmetry"] == "reduce"
        assert start["contracts"] is True
