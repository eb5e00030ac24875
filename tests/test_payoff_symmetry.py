"""Tests for symmetric-profile reduction in payoff-table estimation.

Covers the budget plan arithmetic, the mode-resolution precedence
(argument > ``REPRO_SYMMETRY`` env var > full), the permutation filling of
non-canonical cells, and the statistical equivalence of reduced tables to
full enumeration at equal per-cell interpretation.
"""

import math

import pytest

from repro.algorithms.degree_discount import DegreeDiscount
from repro.algorithms.heuristics import HighDegree, RandomSeeds
from repro.cascade.ic import IndependentCascade
from repro.config import SYMMETRY_ENV_VAR
from repro.core.payoff import (
    SYMMETRY_MODES,
    canonical_profile,
    estimate_payoff_table,
    profile_multiplicity,
    resolve_symmetry,
    symmetric_profile_plan,
)
from repro.core.strategy import StrategySpace
from repro.errors import PayoffEstimationError
from repro.obs.journal import RunJournal, read_journal
from repro.obs.metrics import counter


@pytest.fixture
def space() -> StrategySpace:
    return StrategySpace([DegreeDiscount(0.1), RandomSeeds()])


class TestResolveSymmetry:
    def test_default_is_full(self, monkeypatch):
        monkeypatch.delenv(SYMMETRY_ENV_VAR, raising=False)
        assert resolve_symmetry() == "full"
        assert resolve_symmetry(None) == "full"

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv(SYMMETRY_ENV_VAR, "reduce")
        assert resolve_symmetry() == "reduce"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(SYMMETRY_ENV_VAR, "reduce")
        assert resolve_symmetry("full") == "full"

    def test_blank_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(SYMMETRY_ENV_VAR, "   ")
        assert resolve_symmetry() == "full"

    def test_unknown_mode_rejected(self, monkeypatch):
        monkeypatch.delenv(SYMMETRY_ENV_VAR, raising=False)
        with pytest.raises(PayoffEstimationError, match="symmetry"):
            resolve_symmetry("fast")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(SYMMETRY_ENV_VAR, "bogus")
        with pytest.raises(PayoffEstimationError, match="symmetry"):
            resolve_symmetry()

    def test_known_modes(self):
        assert SYMMETRY_MODES == ("full", "reduce")


class TestProfileHelpers:
    def test_canonical_profile_sorts(self):
        assert canonical_profile((2, 0, 1)) == (0, 1, 2)
        assert canonical_profile((1, 1, 0)) == (0, 1, 1)

    def test_multiplicity_distinct_actions(self):
        assert profile_multiplicity((0, 1, 2)) == 6

    def test_multiplicity_repeats(self):
        assert profile_multiplicity((0, 0, 1)) == 3
        assert profile_multiplicity((0, 0, 0)) == 1
        assert profile_multiplicity((0, 1)) == 2


class TestSymmetricProfilePlan:
    def test_plan_size_is_multiset_count(self):
        for z, r in [(2, 2), (3, 2), (3, 3), (2, 3)]:
            plan = symmetric_profile_plan(z, r, 30)
            assert len(plan) == math.comb(z + r - 1, r)

    def test_weights_cover_full_tensor(self):
        for z, r in [(2, 2), (3, 3), (4, 2)]:
            plan = symmetric_profile_plan(z, r, 30)
            assert sum(weight for _, weight, _ in plan) == z**r

    def test_profiles_are_canonical_and_unique(self):
        plan = symmetric_profile_plan(3, 3, 30)
        profiles = [profile for profile, _, _ in plan]
        assert all(profile == canonical_profile(profile) for profile in profiles)
        assert len(set(profiles)) == len(profiles)

    def test_allocation_floors(self):
        plan = symmetric_profile_plan(3, 3, 30, seed_draws=4)
        for _, _, alloc in plan:
            assert alloc >= math.ceil(30 / 2)
            assert alloc >= 4

    def test_z3_r3_budget_saves_enough_for_gate(self):
        # The acceptance gate needs >= 2x at z=3, r=3: nine repeated-action
        # profiles at rounds/2 plus the one all-distinct profile at rounds
        # totals 5.5*rounds against the full tensor's 27*rounds.
        plan = symmetric_profile_plan(3, 3, 30)
        total = sum(alloc for _, _, alloc in plan)
        assert total == 165
        assert 27 * 30 / total > 2.0

    def test_z3_r2_budget_saves_enough_for_gate(self):
        plan = symmetric_profile_plan(3, 2, 30)
        total = sum(alloc for _, _, alloc in plan)
        assert 9 * 30 / total >= 1.5


class TestReducedTable:
    @pytest.fixture
    def tables(self, karate, space):
        full = estimate_payoff_table(
            karate,
            IndependentCascade(0.1),
            space,
            num_groups=2,
            k=3,
            rounds=12,
            rng=0,
            symmetry="full",
        )
        reduced = estimate_payoff_table(
            karate,
            IndependentCascade(0.1),
            space,
            num_groups=2,
            k=3,
            rounds=12,
            rng=0,
            symmetry="reduce",
        )
        return full, reduced

    def test_symmetry_recorded_on_table(self, tables):
        full, reduced = tables
        assert full.symmetry == "full"
        assert reduced.symmetry == "reduce"

    def test_all_cells_present(self, tables):
        _, reduced = tables
        assert set(reduced.estimates) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(len(v) == 2 for v in reduced.estimates.values())

    def test_filled_cells_share_canonical_estimates(self, tables):
        _, reduced = tables
        # (1, 0) is filled from canonical (0, 1) with players swapped — the
        # estimate objects themselves are shared, not re-simulated copies.
        assert reduced.estimate((1, 0), 0) is reduced.estimate((0, 1), 1)
        assert reduced.estimate((1, 0), 1) is reduced.estimate((0, 1), 0)

    def test_three_groups_permutation_consistency(self, karate):
        space = StrategySpace([DegreeDiscount(0.1), RandomSeeds(), HighDegree()])
        table = estimate_payoff_table(
            karate,
            IndependentCascade(0.1),
            space,
            num_groups=3,
            k=2,
            rounds=4,
            rng=1,
            symmetry="reduce",
        )
        assert len(table.estimates) == 27
        # Every permutation of (0, 1, 2) reads the same three estimates,
        # re-indexed by which position plays which action.
        canonical = {
            action: table.estimate((0, 1, 2), j)
            for j, action in enumerate((0, 1, 2))
        }
        for profile in [(2, 1, 0), (1, 2, 0), (0, 2, 1), (2, 0, 1), (1, 0, 2)]:
            for i, action in enumerate(profile):
                assert table.estimate(profile, i) is canonical[action]

    def test_to_game_is_exactly_player_symmetric_off_diagonal(self, tables):
        # Off-diagonal cells are filled by permutation, so the symmetry
        # payoff((a, b), 0) == payoff((b, a), 1) holds *exactly* — no Monte
        # Carlo disagreement for symmetrize() to average away.  Diagonal
        # cells keep independent per-player estimates (each player simulates
        # its own seed set), exactly as in full mode.
        _, reduced = tables
        game = reduced.to_game()
        assert game.payoff((0, 1), 0) == game.payoff((1, 0), 1)
        assert game.payoff((0, 1), 1) == game.payoff((1, 0), 0)

    def test_profile_counters(self, karate, space):
        estimated = counter("payoff.profiles_estimated")
        before = estimated.value
        table = estimate_payoff_table(
            karate,
            IndependentCascade(0.1),
            space,
            num_groups=2,
            k=3,
            rounds=6,
            rng=2,
            symmetry="reduce",
        )
        plan = [profile for profile, _, _ in symmetric_profile_plan(2, 2, 6)]
        assert estimated.value - before == len(plan)
        # The table still holds all z^r profiles; the one permuted cell
        # reuses the canonical (0, 1) estimates with the players swapped.
        assert sorted(table.estimates) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert (1, 0) not in plan
        assert table.estimate((1, 0), 0) is table.estimate((0, 1), 1)
        assert table.estimate((1, 0), 1) is table.estimate((0, 1), 0)

    def test_reduced_mode_reproducible(self, karate, space):
        a = estimate_payoff_table(
            karate, IndependentCascade(0.1), space, k=3, rounds=6, rng=9,
            symmetry="reduce",
        )
        b = estimate_payoff_table(
            karate, IndependentCascade(0.1), space, k=3, rounds=6, rng=9,
            symmetry="reduce",
        )
        for profile in a.estimates:
            for i in range(2):
                assert a.estimate(profile, i).mean == b.estimate(profile, i).mean

    def test_journal_records_simulated_profiles_only(
        self, karate, space, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            estimate_payoff_table(
                karate,
                IndependentCascade(0.1),
                space,
                num_groups=2,
                k=3,
                rounds=6,
                rng=3,
                symmetry="reduce",
                journal=journal,
            )
        events = read_journal(path)
        kinds = [e["event"] for e in events]
        plan_size = len(symmetric_profile_plan(2, 2, 6))
        assert kinds.count("profile_done") == plan_size


class TestStatisticalEquivalence:
    def test_reduced_means_match_full_within_pooled_stderr(self, karate):
        # The acceptance bound: on every cell the reduced-mode mean must sit
        # within 3 pooled standard errors of the full-mode mean.  The same
        # master seed gives both modes identical phase-1 seed selections (a
        # design invariant of the reduction), so the stderr — which measures
        # diffusion noise conditional on the seed sets — is the right scale
        # for the residual disagreement between the two simulation layouts.
        # Deterministic strategies keep the bound exact: a filled cell maps a
        # player onto the *other* group's seed draw for the same action,
        # which only coincides when selection is seed-set-deterministic (for
        # randomized strategies the equivalence is distributional — covered
        # by the permutation-consistency tests above).
        space = StrategySpace([DegreeDiscount(0.1), HighDegree()])
        model = IndependentCascade(0.1)
        full = estimate_payoff_table(
            karate, model, space, num_groups=2, k=3, rounds=240, rng=42,
            symmetry="full",
        )
        reduced = estimate_payoff_table(
            karate, model, space, num_groups=2, k=3, rounds=240, rng=42,
            symmetry="reduce",
        )
        for profile in full.estimates:
            for i in range(2):
                a = full.estimate(profile, i)
                b = reduced.estimate(profile, i)
                pooled = math.sqrt(a.stderr**2 + b.stderr**2)
                assert abs(a.mean - b.mean) <= 3 * pooled + 1e-12, (
                    profile,
                    i,
                    a.mean,
                    b.mean,
                    pooled,
                )
