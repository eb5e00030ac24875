"""Tests for the shared CascadeModel machinery in cascade.base."""

import numpy as np
import pytest

from repro.cascade.base import CascadeModel
from repro.cascade.competitive import CompetitiveDiffusion
from repro.cascade.ic import IndependentCascade
from repro.cascade.wc import WeightedCascade
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.utils.rng import as_rng


class _FixedProbModel(CascadeModel):
    """Toy model: caller-specified per-edge probabilities."""

    name = "fixed"

    def __init__(self, probs):
        self._probs = np.asarray(probs, dtype=float)

    def edge_probabilities(self, graph):
        return self._probs


def _active(graph, model, seeds, rng=None):
    """One single-group diffusion's active-node mask: the one-group sweep."""
    return CompetitiveDiffusion(graph, model).run([seeds], rng).owner >= 0


class TestDefaultSimulate:
    def test_heterogeneous_probabilities_respected(self):
        # 0 -> 1 with p=1, 0 -> 2 with p=0.
        g = DiGraph(3, [(0, 1), (0, 2)])
        src, dst = g.edge_array()
        probs = np.where(dst == 1, 1.0, 0.0)
        model = _FixedProbModel(probs)
        active = _active(g, model, [0], rng=0)
        assert active.tolist() == [True, True, False]

    def test_spread_matches_active_count(self, karate):
        # The one-group outcome's spread is its active-node count.
        outcome = CompetitiveDiffusion(karate, IndependentCascade(0.2)).run([[0]], as_rng(5))
        assert outcome.spread(0) == outcome.total_activated
        assert outcome.total_activated == int(
            _active(karate, IndependentCascade(0.2), [0], as_rng(5)).sum()
        )

    def test_empty_seed_list(self, karate):
        active = _active(karate, IndependentCascade(0.5), [], rng=0)
        assert not active.any()

    def test_repr_default(self):
        assert repr(WeightedCascade()) == "WeightedCascade()"


class TestDefaultLiveMask:
    def test_mask_distribution_matches_probabilities(self):
        g = DiGraph(2, [(0, 1)])
        model = _FixedProbModel(np.array([0.25]))
        rng = as_rng(0)
        hits = sum(model.sample_live_mask(g, rng)[0] for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.25, abs=0.03)

    def test_mask_shape(self, karate):
        mask = IndependentCascade(0.3).sample_live_mask(karate, rng=1)
        assert mask.shape == (karate.num_edges,)
        assert mask.dtype == bool


class TestSeedValidation:
    @pytest.mark.parametrize("bad_seed", [-1, 34, 1000])
    def test_out_of_range_rejected(self, karate, bad_seed):
        with pytest.raises(CascadeError, match="out of range"):
            _active(karate, IndependentCascade(0.1), [bad_seed])
