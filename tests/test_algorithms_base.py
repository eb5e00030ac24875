"""Tests for the seed-selector interface and registry."""

import pytest

from repro.algorithms import get_algorithm, registered_algorithms
from repro.algorithms.base import register_algorithm, validate_seed_list
from repro.algorithms.heuristics import RandomSeeds
from repro.errors import SeedSelectionError


class TestRegistry:
    def test_paper_strategies_registered(self):
        names = registered_algorithms()
        assert {"mgic", "mgwc", "ddic", "sdwc"} <= set(names)

    def test_extra_strategies_registered(self):
        assert {"degree", "random", "pagerank"} <= set(registered_algorithms())

    def test_lookup_is_case_insensitive(self):
        assert get_algorithm("DDIC").name == "ddic"

    def test_lookup_passes_kwargs(self):
        algo = get_algorithm("ddic", probability=0.2)
        assert algo.probability == 0.2

    def test_mgic_factory(self):
        algo = get_algorithm("mgic", probability=0.1, num_snapshots=5)
        assert algo.name == "mgic"
        assert algo.model.probability == 0.1
        assert algo.num_snapshots == 5

    def test_unknown_name_lists_options(self):
        with pytest.raises(SeedSelectionError, match="registered"):
            get_algorithm("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SeedSelectionError, match="already registered"):
            register_algorithm("ddic", RandomSeeds)


class TestBudgetChecks:
    def test_budget_over_nodes_rejected(self, karate):
        with pytest.raises(SeedSelectionError, match="exceeds"):
            RandomSeeds().select(karate, 35)

    def test_zero_budget_rejected(self, karate):
        with pytest.raises(ValueError):
            RandomSeeds().select(karate, 0)

    def test_full_budget_allowed(self, karate):
        seeds = RandomSeeds().select(karate, 34, rng=0)
        assert sorted(seeds) == list(range(34))


class TestValidateSeedList:
    def test_accepts_valid(self):
        assert validate_seed_list([2, 0, 1], 3, 5) == [2, 0, 1]

    def test_wrong_length(self):
        with pytest.raises(SeedSelectionError, match="expected 3"):
            validate_seed_list([0, 1], 3, 5)

    def test_duplicates(self):
        with pytest.raises(SeedSelectionError, match="duplicates"):
            validate_seed_list([0, 0, 1], 3, 5)

    def test_out_of_range(self):
        with pytest.raises(SeedSelectionError, match="out of range"):
            validate_seed_list([0, 1, 9], 3, 5)
