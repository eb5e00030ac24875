"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, derive_seed


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(as_rng(1).random(5), as_rng(2).random(5))

    def test_generator_passthrough_shares_state(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_numpy_integer_seed_accepted(self):
        assert isinstance(as_rng(np.int64(7)), np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            as_rng(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="rng must be"):
            as_rng("seed")


class TestDeriveSeed:
    def test_range(self):
        seed = derive_seed(123)
        assert 0 <= seed < 2**63

    def test_deterministic(self):
        assert derive_seed(9) == derive_seed(9)

    def test_salt_changes_value(self):
        assert derive_seed(9, salt=1) != derive_seed(9)
