"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_docstring_example_runs(self):
        graph = repro.karate_like_fixture()
        model = repro.IndependentCascade(0.1)
        space = repro.StrategySpace([repro.DegreeDiscount(0.1), repro.RandomSeeds()])
        result = repro.get_real(graph, model, space, k=3, rounds=10, rng=7)
        assert result.kind in {"pure", "mixed"}


class TestFullPipelineIc:
    """GetReal over the hep surrogate under IC, mirroring the paper's flow."""

    @pytest.fixture(scope="class")
    def result(self):
        graph = repro.hep(scale=0.03)
        model = repro.IndependentCascade(0.05)
        space = repro.StrategySpace(
            [
                repro.MixGreedy(model, num_snapshots=15),
                repro.DegreeDiscount(0.05),
            ]
        )
        return repro.get_real(graph, model, space, k=10, rounds=12, rng=11)

    def test_produces_equilibrium(self, result):
        assert result.kind in {"pure", "mixed"}
        assert result.regret < result.game.payoffs.max()

    def test_payoff_table_complete(self, result):
        assert len(result.payoff_table.estimates) == 4

    def test_ne_search_subsecond(self, result):
        assert result.solve_seconds < 1.0

    def test_game_labels(self, result):
        assert result.game.action_labels == ["mgic", "ddic"]


class TestFullPipelineWc:
    def test_wc_and_lt_models_run(self):
        graph = repro.hep(scale=0.02)
        space = repro.StrategySpace(
            [repro.SingleDiscount(), repro.RandomSeeds()]
        )
        for model in (repro.WeightedCascade(), repro.LinearThreshold()):
            result = repro.get_real(graph, model, space, k=5, rounds=6, rng=3)
            assert result.kind in {"pure", "mixed"}

    def test_three_player_three_strategy(self):
        graph = repro.karate_like_fixture()
        model = repro.IndependentCascade(0.1)
        space = repro.StrategySpace(
            [repro.DegreeDiscount(0.1), repro.SingleDiscount(), repro.RandomSeeds()]
        )
        result = repro.get_real(
            graph, model, space, num_groups=3, k=2, rounds=4, rng=5
        )
        assert result.game.num_players == 3
        assert len(result.payoff_table.estimates) == 27


class TestCompetitionHurtsNaiveIm:
    """The paper's motivating claim: classical IM overestimates its spread
    once a rival enters the market."""

    def test_competitive_spread_below_singleton(self):
        graph = repro.hep(scale=0.05)
        model = repro.IndependentCascade(0.08)
        algo = repro.DegreeDiscount(0.08)
        s1 = algo.select(graph, 10, rng=0)
        s2 = algo.select(graph, 10, rng=1)
        singleton = repro.estimate_spread(graph, model, s1, rounds=80, rng=2)
        competitive = repro.estimate_competitive_spread(
            graph, model, [s1, s2], rounds=80, rng=3
        )
        # In competition each group gets clearly less than the solo spread.
        assert competitive[0].mean < singleton.mean * 0.9

    def test_lambda_between_half_and_one(self):
        graph = repro.hep(scale=0.05)
        model = repro.WeightedCascade()
        coeff = repro.estimate_coefficients(
            graph,
            model,
            repro.MixGreedy(model, 10),
            repro.SingleDiscount(),
            k=10,
            rounds=40,
            rng=4,
        )
        assert 0.4 < coeff.lam < 1.1


class TestSeedsSerializeThroughEdgeLists:
    def test_save_load_preserves_getreal_input(self, tmp_path):
        graph = repro.karate_like_fixture()
        path = tmp_path / "karate.txt"
        repro.save_edge_list(graph, path)
        loaded, _ = repro.load_edge_list(path)
        space = repro.StrategySpace([repro.DegreeDiscount(0.1), repro.RandomSeeds()])
        a = repro.get_real(
            graph, repro.IndependentCascade(0.1), space, k=3, rounds=8, rng=9
        )
        b = repro.get_real(
            loaded, repro.IndependentCascade(0.1), space, k=3, rounds=8, rng=9
        )
        assert a.kind == b.kind
        assert np.allclose(a.mixture.probabilities, b.mixture.probabilities)


class TestExperimentConfigIntegration:
    def test_tiny_sweep_runs_clean(self):
        from repro.experiments import MatrixSpec, run_matrix

        for name in ("jaccard_overlap", "spread_panels"):
            spec = MatrixSpec.from_dict(
                {"name": "tiny", "scenario": name, "ks": [3],
                 "nodes": 250, "rounds": 3, "snapshots": 5, "seed": 0}
            )
            (cell,) = run_matrix(spec, append=False).results
            assert cell.metrics
