"""Property tests: competitive invariants hold under every cascade model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cascade.competitive import CompetitiveDiffusion
from repro.cascade.ic import IndependentCascade
from repro.cascade.lt import LinearThreshold
from repro.cascade.wc import WeightedCascade
from repro.graphs.digraph import DiGraph
from repro.utils.rng import as_rng

MODELS = [
    IndependentCascade(0.3),
    WeightedCascade(),
    LinearThreshold(),
]


@st.composite
def small_competitive_instance(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=30,
        )
    )
    seeds_a = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    seeds_b = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    seed = draw(st.integers(0, 2**31 - 1))
    return DiGraph(n, edges), [seeds_a, seeds_b], seed


class TestModelAgnosticInvariants:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @given(instance=small_competitive_instance())
    @settings(max_examples=25, deadline=None)
    def test_partition_and_seed_activation(self, model, instance):
        graph, seed_sets, seed = instance
        engine = CompetitiveDiffusion(graph, model)
        outcome = engine.run(seed_sets, as_rng(seed))
        # Ownership partitions the activated set.
        assert outcome.spreads().sum() == outcome.total_activated
        # Every seed (union) is active under some owner.
        union = set(seed_sets[0]) | set(seed_sets[1])
        for v in union:
            assert outcome.owner[v] >= 0

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @given(instance=small_competitive_instance())
    @settings(max_examples=20, deadline=None)
    def test_timeline_consistency(self, model, instance):
        graph, seed_sets, seed = instance
        engine = CompetitiveDiffusion(graph, model)
        outcome = engine.run(seed_sets, as_rng(seed))
        timeline = outcome.timeline()
        assert timeline.shape == (outcome.rounds + 1, 2)
        assert np.array_equal(timeline.sum(axis=0), outcome.spreads())
        assert timeline[0].sum() == sum(len(g) for g in outcome.initiators)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @given(instance=small_competitive_instance())
    @settings(max_examples=20, deadline=None)
    def test_activation_bounded_by_reachability(self, model, instance):
        graph, seed_sets, seed = instance
        engine = CompetitiveDiffusion(graph, model)
        outcome = engine.run(seed_sets, as_rng(seed))
        union = sorted(set(seed_sets[0]) | set(seed_sets[1]))
        reachable = graph.reachable_from(union)
        # Nothing outside the reachable closure can ever activate.
        active = outcome.owner >= 0
        assert not np.any(active & ~reachable)
