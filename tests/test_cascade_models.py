"""Tests for the single-group cascade models (IC, WC, LT).

A single-group diffusion is the one-group run of the competitive engine;
its active nodes are those with ``owner >= 0``.
"""

import numpy as np
import pytest

from repro.cascade.competitive import CompetitiveDiffusion
from repro.cascade.ic import IndependentCascade
from repro.cascade.lt import LinearThreshold
from repro.cascade.wc import WeightedCascade
from repro.errors import CascadeError
from repro.graphs.datasets import hep
from repro.utils.rng import as_rng


def _active(graph, model, seeds, rng=None):
    """One single-group diffusion from *seeds*: its active-node mask."""
    return CompetitiveDiffusion(graph, model).run([seeds], rng).owner >= 0


def _spread(graph, model, seeds, rng):
    """Active-node count of one single-group diffusion."""
    return int(_active(graph, model, seeds, rng).sum())


class TestIndependentCascade:
    def test_edge_probabilities_uniform(self, karate):
        model = IndependentCascade(0.07)
        probs = model.edge_probabilities(karate)
        assert probs.shape == (karate.num_edges,)
        assert np.all(probs == 0.07)

    def test_p_one_floods_reachable(self, path_graph):
        model = IndependentCascade(1.0)
        active = _active(path_graph, model, [0], rng=0)
        assert active.all()

    def test_p_zero_activates_only_seeds(self, path_graph):
        model = IndependentCascade(0.0)
        active = _active(path_graph, model, [0, 2], rng=0)
        assert active.tolist() == [True, False, True, False, False]

    def test_p_one_respects_direction(self, path_graph):
        model = IndependentCascade(1.0)
        active = _active(path_graph, model, [2], rng=0)
        assert active.tolist() == [False, False, True, True, True]

    def test_star_spread_statistics(self, star_graph):
        # E[spread from hub] = 1 + 10 p.
        model = IndependentCascade(0.3)
        rng = as_rng(1)
        spreads = [_spread(star_graph, model, [0], rng) for _ in range(800)]
        assert np.mean(spreads) == pytest.approx(1 + 10 * 0.3, rel=0.08)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            IndependentCascade(1.2)

    def test_bad_seed_rejected(self, path_graph):
        with pytest.raises(CascadeError, match="out of range"):
            _active(path_graph, IndependentCascade(0.5), [9])

    def test_duplicate_seeds_collapse(self, path_graph):
        model = IndependentCascade(0.0)
        active = _active(path_graph, model, [1, 1, 1], rng=0)
        assert active.sum() == 1

    def test_equality_and_hash(self):
        assert IndependentCascade(0.01) == IndependentCascade(0.01)
        assert IndependentCascade(0.01) != IndependentCascade(0.02)
        assert hash(IndependentCascade(0.01)) == hash(IndependentCascade(0.01))

    def test_repr_mentions_p(self):
        assert "0.05" in repr(IndependentCascade(0.05))

    def test_deterministic_for_seed(self, karate):
        model = IndependentCascade(0.2)
        a = _active(karate, model, [0], rng=42)
        b = _active(karate, model, [0], rng=42)
        assert np.array_equal(a, b)


class TestWeightedCascade:
    def test_edge_probability_is_inverse_in_degree(self, diamond_graph):
        model = WeightedCascade()
        probs = model.edge_probabilities(diamond_graph)
        src, dst = diamond_graph.edge_array()
        in_deg = diamond_graph.in_degrees()
        for eid in range(diamond_graph.num_edges):
            assert probs[eid] == pytest.approx(1.0 / in_deg[dst[eid]])

    def test_probabilities_at_most_one(self, karate):
        probs = WeightedCascade().edge_probabilities(karate)
        assert np.all(probs <= 1.0)
        assert np.all(probs > 0.0)

    def test_path_graph_always_floods(self, path_graph):
        # Every node on the path has in-degree 1 -> probability 1 edges.
        active = _active(path_graph, WeightedCascade(), [0], rng=0)
        assert active.all()

    def test_expected_incoming_weight_is_one(self, karate):
        # Sum of probabilities over each node's in-edges equals exactly 1.
        probs = WeightedCascade().edge_probabilities(karate)
        _, dst = karate.edge_array()
        totals = np.zeros(karate.num_nodes)
        np.add.at(totals, dst, probs)
        in_deg = karate.in_degrees()
        assert np.allclose(totals[in_deg > 0], 1.0)

    def test_equality(self):
        assert WeightedCascade() == WeightedCascade()


class TestLinearThreshold:
    def test_weights_match_wc(self, karate):
        # LT weights and WC probabilities share the 1/in-degree form.
        lt = LinearThreshold().edge_probabilities(karate)
        wc = WeightedCascade().edge_probabilities(karate)
        assert np.allclose(lt, wc)

    def test_path_graph_floods(self, path_graph):
        # Single in-neighbour with weight 1 always crosses any threshold.
        active = _active(path_graph, LinearThreshold(), [0], rng=0)
        assert active.all()

    def test_seeds_always_active(self, karate):
        active = _active(karate, LinearThreshold(), [5, 7], rng=3)
        assert active[5] and active[7]

    def test_bad_seed_rejected(self, karate):
        with pytest.raises(CascadeError):
            _active(karate, LinearThreshold(), [99])

    def test_consecutive_spreads_pinned(self):
        # Eight diffusions off one generator, seeds unsorted and repeated,
        # then one more draw: pins both the spreads and how far each
        # diffusion advances the stream.
        graph = hep(scale=0.02)
        model, rng = LinearThreshold(), as_rng(2015)
        spreads = [_spread(graph, model, [40, 0, 17, 5, 5], rng) for _ in range(8)]
        assert spreads == [17, 9, 52, 13, 6, 17, 11, 16]
        assert int(rng.integers(2**31)) == 1897267909

    def test_live_mask_at_most_one_in_edge(self, karate):
        model = LinearThreshold()
        mask = model.sample_live_mask(karate, rng=0)
        _, dst = karate.edge_array()
        live_dst = dst[mask]
        # No destination appears twice among live edges.
        assert len(live_dst) == len(set(live_dst.tolist()))

    def test_live_mask_covers_every_node_with_in_edges(self, karate):
        # Weights sum to exactly 1 per node, so exactly one in-edge is live.
        mask = LinearThreshold().sample_live_mask(karate, rng=1)
        _, dst = karate.edge_array()
        in_deg = karate.in_degrees()
        live_counts = np.zeros(karate.num_nodes, dtype=int)
        np.add.at(live_counts, dst[mask], 1)
        assert np.all(live_counts[in_deg > 0] == 1)

    def test_monotone_in_seed_count(self, karate):
        model = LinearThreshold()
        rng_pairs = [(as_rng(s), as_rng(s)) for s in range(5)]
        for r1, r2 in rng_pairs:
            small = _active(karate, model, [0], r1).sum()
            large = _active(karate, model, [0, 33], r2).sum()
            assert large >= 1  # sanity: diffusion happened
        # Statistical monotonicity over repeats.
        small = np.mean([_active(karate, model, [0], as_rng(i)).sum() for i in range(60)])
        large = np.mean(
            [_active(karate, model, [0, 33], as_rng(i)).sum() for i in range(60)]
        )
        assert large > small


class TestTriggeringEquivalence:
    """Spread via direct simulation == spread via live-edge reachability."""

    @pytest.mark.parametrize(
        "model", [IndependentCascade(0.15), WeightedCascade(), LinearThreshold()]
    )
    def test_snapshot_mean_matches_simulation_mean(self, karate, model):
        rng = as_rng(11)
        n = 400
        sim = np.mean([_spread(karate, model, [0, 33], rng) for _ in range(n)])
        snap = np.mean(
            [
                karate.reachable_from([0, 33], model.sample_live_mask(karate, rng)).sum()
                for _ in range(n)
            ]
        )
        assert snap == pytest.approx(sim, rel=0.1)
