"""Tests for payoff-table estimation."""

import pytest

from repro.algorithms.degree_discount import DegreeDiscount
from repro.algorithms.heuristics import HighDegree, RandomSeeds
from repro.cascade.ic import IndependentCascade
from repro.core.payoff import estimate_payoff_table
from repro.core.strategy import StrategySpace
from repro.errors import PayoffEstimationError
from repro.obs.metrics import counter


@pytest.fixture
def space() -> StrategySpace:
    return StrategySpace([DegreeDiscount(0.1), RandomSeeds()])


@pytest.fixture
def table(karate, space):
    # symmetry="full" pins the exact per-cell accounting these tests assert
    # even when the suite runs under REPRO_SYMMETRY=reduce (CI matrix).
    return estimate_payoff_table(
        karate,
        IndependentCascade(0.1),
        space,
        num_groups=2,
        k=3,
        rounds=12,
        rng=0,
        symmetry="full",
    )


class TestEstimatePayoffTable:
    def test_all_profiles_present(self, table):
        assert set(table.estimates) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_each_profile_has_per_group_estimates(self, table):
        for ests in table.estimates.values():
            assert len(ests) == 2
            assert all(e.samples == 12 for e in ests)

    def test_metadata(self, table, space):
        assert table.k == 3
        assert table.rounds == 12
        assert table.num_groups == 2
        assert table.space is space

    def test_three_groups_three_strategies(self, karate):
        space = StrategySpace([DegreeDiscount(0.1), RandomSeeds(), HighDegree()])
        table = estimate_payoff_table(
            karate, IndependentCascade(0.1), space, num_groups=3, k=2, rounds=3, rng=1
        )
        assert len(table.estimates) == 27
        assert all(len(v) == 3 for v in table.estimates.values())

    def test_estimate_accessor(self, table):
        est = table.estimate((0, 1), 0)
        assert est.mean > 0

    def test_to_game_matches_means(self, table):
        game = table.to_game()
        for profile, ests in table.estimates.items():
            for i, est in enumerate(ests):
                assert game.payoff(profile, i) == pytest.approx(est.mean)

    def test_to_game_labels(self, table):
        assert table.to_game().action_labels == ["ddic", "random"]

    def test_max_stderr_positive(self, table):
        assert table.max_stderr() > 0

    def test_rows_structure(self, table):
        rows = table.rows()
        assert len(rows) == 8  # 4 profiles x 2 groups
        assert {"profile", "group", "spread", "stderr"} <= set(rows[0])

    def test_seed_draws_split_rounds(self, karate, space):
        table = estimate_payoff_table(
            karate,
            IndependentCascade(0.1),
            space,
            k=3,
            rounds=12,
            seed_draws=3,
            rng=2,
            symmetry="full",
        )
        assert table.seed_draws == 3
        assert table.rounds == 12
        assert all(
            e.samples == 12 for v in table.estimates.values() for e in v
        )

    def test_non_divisible_rounds_all_run(self, karate, space):
        # Regression: rounds not divisible by seed_draws used to be silently
        # truncated to (rounds // seed_draws) * seed_draws simulations.
        table = estimate_payoff_table(
            karate,
            IndependentCascade(0.1),
            space,
            k=3,
            rounds=30,
            seed_draws=4,
            rng=8,
            symmetry="full",
        )
        assert table.rounds == 30
        assert all(
            e.samples == 30 for v in table.estimates.values() for e in v
        )

    def test_rounds_equal_to_draws(self, karate, space):
        table = estimate_payoff_table(
            karate,
            IndependentCascade(0.1),
            space,
            k=3,
            rounds=5,
            seed_draws=5,
            rng=8,
            symmetry="full",
        )
        assert all(
            e.samples == 5 for v in table.estimates.values() for e in v
        )

    def test_profiles_counter_counts_pooled_profiles(self, karate, space):
        # Regression: the counter used to fire once per (draw, profile) job,
        # reporting z^r x seed_draws instead of z^r.
        profiles = counter("payoff.profiles_estimated")
        before = profiles.value
        estimate_payoff_table(
            karate,
            IndependentCascade(0.1),
            space,
            num_groups=2,
            k=3,
            rounds=9,
            seed_draws=3,
            rng=8,
            symmetry="full",
        )
        assert profiles.value - before == 4  # z=2 strategies, r=2 groups

    def test_rounds_below_draws_rejected(self, karate, space):
        with pytest.raises(PayoffEstimationError, match="seed_draws"):
            estimate_payoff_table(
                karate, IndependentCascade(0.1), space, k=3, rounds=2, seed_draws=5
            )

    def test_reproducible(self, karate, space):
        a = estimate_payoff_table(
            karate, IndependentCascade(0.1), space, k=3, rounds=6, rng=9
        )
        b = estimate_payoff_table(
            karate, IndependentCascade(0.1), space, k=3, rounds=6, rng=9
        )
        for profile in a.estimates:
            assert a.estimate(profile, 0).mean == b.estimate(profile, 0).mean

    def test_strong_strategy_dominates_random(self, karate, space):
        """DegreeDiscount vs Random: the profile payoffs must favour ddic."""
        table = estimate_payoff_table(
            karate, IndependentCascade(0.15), space, k=3, rounds=120, rng=3
        )
        # p1 playing ddic against random beats p1 playing random against random.
        assert (
            table.estimate((0, 1), 0).mean > table.estimate((1, 1), 0).mean
        )

    def test_same_strategy_profiles_are_roughly_symmetric(self, karate, space):
        table = estimate_payoff_table(
            karate, IndependentCascade(0.15), space, k=3, rounds=300, rng=4
        )
        diag = table.estimate((0, 0), 0).mean
        other = table.estimate((0, 0), 1).mean
        assert diag == pytest.approx(other, rel=0.3)
