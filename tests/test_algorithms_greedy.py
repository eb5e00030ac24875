"""Tests for MixGreedy and its CELF loop."""

import numpy as np
import pytest

from repro.algorithms.greedy import MixGreedy, run_celf
from repro.cascade.ic import IndependentCascade
from repro.cascade.simulate import estimate_spread
from repro.cascade.wc import WeightedCascade
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi
from repro.utils.rng import as_rng


class TestNaming:
    def test_mixgreedy_names_follow_model(self):
        assert MixGreedy(IndependentCascade(0.01)).name == "mgic"
        assert MixGreedy(WeightedCascade()).name == "mgwc"

    def test_snapshot_count_validated(self):
        with pytest.raises(ValueError):
            MixGreedy(IndependentCascade(0.01), num_snapshots=0)


class TestSelection:
    def test_valid_output(self, karate):
        seeds = MixGreedy(IndependentCascade(0.1), 20).select(karate, 5, rng=0)
        assert len(seeds) == 5
        assert len(set(seeds)) == 5

    def test_first_seed_is_hub_on_star(self, star_graph):
        seeds = MixGreedy(IndependentCascade(0.5), 30).select(star_graph, 1, rng=0)
        assert seeds == [0]

    def test_deterministic_structure_p_one(self, diamond_graph):
        # With p=1 spreads are deterministic: node 0 reaches all 4.
        seeds = MixGreedy(IndependentCascade(1.0), 3).select(diamond_graph, 1, rng=0)
        assert seeds == [0]

    def test_two_components_takes_one_seed_each(self):
        # Two disjoint stars: greedy must not waste both seeds on one.
        edges = [(0, i) for i in range(1, 6)] + [(6, i) for i in range(7, 12)]
        g = DiGraph(12, edges)
        seeds = MixGreedy(IndependentCascade(1.0), 3).select(g, 2, rng=0)
        assert sorted(seeds) == [0, 6]

    def test_celf_agrees_with_mixgreedy_on_deterministic_graph(self):
        from repro.cascade.snapshots import SnapshotOracle

        edges = [(0, i) for i in range(1, 6)] + [(6, i) for i in range(7, 10)]
        g = DiGraph(10, edges)
        mg = MixGreedy(IndependentCascade(1.0), 2).select(g, 2, rng=1)
        oracle = SnapshotOracle(g, [np.ones(g.num_edges, dtype=bool)] * 2)
        celf, _ = run_celf(oracle, 2, oracle.initial_gains())
        assert sorted(mg) == sorted(celf) == [0, 6]

    def test_randomized_across_calls(self, karate):
        algo = MixGreedy(IndependentCascade(0.1), 10)
        rng = as_rng(5)
        picks = {tuple(algo.select(karate, 5, rng)) for _ in range(8)}
        assert len(picks) > 1  # fresh snapshots per call -> varying seeds

    def test_reproducible_for_seed(self, karate):
        algo = MixGreedy(IndependentCascade(0.1), 10)
        assert algo.select(karate, 5, rng=3) == algo.select(karate, 5, rng=3)


class TestQuality:
    def test_beats_random_seeds(self, karate):
        model = IndependentCascade(0.15)
        greedy_seeds = MixGreedy(model, 40).select(karate, 3, rng=0)
        rng = as_rng(1)
        greedy = estimate_spread(karate, model, greedy_seeds, 400, rng).mean
        random_spreads = []
        for s in range(5):
            from repro.algorithms.heuristics import RandomSeeds

            seeds = RandomSeeds().select(karate, 3, rng=s)
            random_spreads.append(
                estimate_spread(karate, model, seeds, 200, rng).mean
            )
        assert greedy > np.mean(random_spreads)

    def test_marginal_gains_nonincreasing(self, karate):
        """Submodularity: greedy's selected marginal gains never increase."""
        from repro.cascade.snapshots import SnapshotOracle, sample_snapshots

        model = IndependentCascade(0.2)
        masks = sample_snapshots(karate, model, 30, rng=2)
        oracle = SnapshotOracle(karate, masks)
        reached = oracle.reach([])
        gains = []
        seeds: list[int] = []
        for _ in range(5):
            best_gain, best_node = -1.0, -1
            for v in range(karate.num_nodes):
                if v in seeds:
                    continue
                gain = oracle.marginal_gain(v, reached)
                if gain > best_gain:
                    best_gain, best_node = gain, v
            gains.append(best_gain)
            seeds.append(best_node)
            oracle.extend_reach(reached, best_node)
        assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))

    def test_celf_matches_exhaustive_greedy(self):
        """CELF's lazy evaluation returns the same seeds as exhaustive greedy
        when both run against an identical snapshot set."""
        from repro.cascade.snapshots import SnapshotOracle, sample_snapshots

        graph = erdos_renyi(30, 90, rng=3)
        model = IndependentCascade(0.3)
        masks = sample_snapshots(graph, model, 20, rng=4)

        # Exhaustive greedy on the fixed masks.
        oracle = SnapshotOracle(graph, masks)
        reached = oracle.reach([])
        exhaustive = []
        for _ in range(4):
            best_gain, best_node = -1.0, -1
            for v in range(graph.num_nodes):
                if v in exhaustive:
                    continue
                gain = oracle.marginal_gain(v, reached)
                if gain > best_gain:
                    best_gain, best_node = gain, v
            exhaustive.append(best_node)
            oracle.extend_reach(reached, best_node)

        # CELF on the same masks: monkeypatch sampling to return them.
        algo = MixGreedy(model, num_snapshots=20)
        import repro.algorithms.greedy as greedy_mod

        original = greedy_mod.sample_snapshots
        greedy_mod.sample_snapshots = lambda *args, **kwargs: masks
        try:
            lazy = algo.select(graph, 4, rng=0)
        finally:
            greedy_mod.sample_snapshots = original

        # Spreads must match exactly (identical possible worlds); the seed
        # identities may differ only on exact ties.
        assert oracle.spread(lazy) == pytest.approx(oracle.spread(exhaustive))


class TestPinnedHepSelection:
    """CELF seeds and gains on the hep surrogate, pinned to recorded values.

    Reach sizes and gain counts are integers, so any reimplementation of
    the reach DP, the closure gathers or the gains must reproduce these
    numbers exactly (not merely within noise).
    """

    PINNED = {
        "ic": (
            [94, 696, 572, 224, 237, 118, 473, 753, 209, 748],
            [18.05, 12.3, 11.45, 7.8, 6.6, 6.35, 5.95, 5.9, 5.6, 5.5],
            [1.9, 2.0, 1.75, 5.4, 9.15],
            "508d9724406cc00d82f5bbf7280455e50d60709e4eb3e9ca8f249a7198ffe6b0",
        ),
        "wc": (
            [613, 696, 224, 94, 237, 572, 67, 209, 753, 473],
            [29.9, 27.55, 25.25, 22.5, 20.95, 16.75, 12.9, 12.3, 11.8, 11.25],
            [3.05, 4.0, 2.9, 7.55, 9.75],
            "50af4831ffe615a7ab0003b4862dbe960addb5e932de584c635cc9b72da45fed",
        ),
    }

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graphs.datasets import hep

        return hep(scale=0.05)

    @pytest.mark.parametrize("model_name", ["ic", "wc"])
    def test_celf_seeds_and_gains(self, graph, model_name):
        import hashlib

        from repro.algorithms.greedy import run_celf
        from repro.cascade.snapshots import SnapshotOracle, sample_snapshots

        model = IndependentCascade(0.08) if model_name == "ic" else WeightedCascade()
        seeds, pick_gains, gains_head, gains_sha = self.PINNED[model_name]
        masks = sample_snapshots(
            graph, model, 20, np.random.default_rng(7), packed=True
        )
        gains = SnapshotOracle(graph, masks).initial_gains()
        assert gains[:5] == gains_head
        assert hashlib.sha256(np.asarray(gains).tobytes()).hexdigest() == gains_sha
        got, trace = run_celf(SnapshotOracle(graph, masks), 10, gains)
        assert got == seeds
        assert trace.pick_gains == pick_gains

    def test_mixgreedy_select(self, graph):
        seeds = MixGreedy(IndependentCascade(0.08), 20).select(graph, 10, rng=11)
        assert seeds == [94, 696, 224, 613, 748, 237, 749, 693, 720, 209]


class TestBatchedCelf:
    """``run_celf`` batches stale re-evaluations; the picks must not move.

    The reference is the one-candidate-per-pop loop in
    ``tests/reference_selection.py``, which evaluates gains by per-snapshot
    BFS.  Snapshot counts include 64 and 100, where initial gains can sit
    an ulp off ``count / snapshots``.
    """

    @pytest.mark.parametrize("packed", [False, True], ids=["bool", "packed"])
    @pytest.mark.parametrize(
        ("seed", "nodes", "edges", "prob", "snapshots"),
        [
            (1, 30, 90, 0.3, 5),
            (2, 40, 160, 0.15, 20),
            (3, 36, 110, 0.4, 64),
            (4, 25, 70, 0.5, 100),
        ],
    )
    def test_matches_one_at_a_time_reference_up_to_k_equals_n(
        self, packed, seed, nodes, edges, prob, snapshots
    ):
        from repro.algorithms.greedy import run_celf
        from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
        from tests.reference_selection import celf_one_at_a_time, reach_sizes_by_bfs

        graph = erdos_renyi(nodes, edges, rng=seed)
        masks = sample_snapshots(
            graph, IndependentCascade(prob), snapshots, rng=seed, packed=packed
        )
        gains = SnapshotOracle(graph, masks).initial_gains()
        totals = np.sum([reach_sizes_by_bfs(graph, mask) for mask in masks], axis=0)
        assert gains == (totals / snapshots).tolist()
        for k in (1, 3, nodes // 2, nodes):
            want, want_trace, _ = celf_one_at_a_time(graph, masks, k, gains)
            got, trace = run_celf(SnapshotOracle(graph, masks), k, gains)
            assert got == want
            assert trace.pick_gains == want_trace.pick_gains

    def test_stale_batches_double_within_a_pick(self):
        from repro.algorithms.greedy import run_celf
        from repro.cascade.snapshots import SnapshotOracle

        # A star with every edge live: once the hub is picked, every leaf's
        # true gain is 0.
        graph = DiGraph(6, [(0, i) for i in range(1, 6)])
        oracle = SnapshotOracle(graph, [np.ones(graph.num_edges, dtype=bool)])
        sizes: list[int] = []
        original = oracle.marginal_gain

        def spy(candidates, reached):
            sizes.append(int(np.size(candidates)))
            return original(candidates, reached)

        oracle.marginal_gain = spy
        # Initial gains overstate nodes 1..5, so every re-evaluation drops
        # below the next stale bound and the batches grow 1, 2, ...
        gains = [6.0, 5.0, 4.5, 4.0, 3.5, 3.0]
        seeds, trace = run_celf(oracle, 2, gains)
        assert seeds == [0, 1]
        assert trace.pick_gains == [6.0, 0.0]
        assert sizes[:2] == [1, 2]
