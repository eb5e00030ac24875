"""Tests for the experiment configuration and the paper's scenarios at tiny scale."""

from functools import lru_cache

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import MatrixSpec, run_matrix

#: Tiny pinned scale shared by every run in this module.
SCALE = {"nodes": 350, "rounds": 4, "snapshots": 6, "seed": 1, "ic_probability": 0.05}


@lru_cache(maxsize=None)
def cells(scenario, datasets=("hep",), models=("ic",), ks=(5, 10)):
    """``{cell_id: metrics}`` of one tiny matrix run (cached per module)."""
    spec = MatrixSpec.from_dict(
        {
            "name": f"tiny-{scenario}",
            "scenario": scenario,
            "datasets": list(datasets),
            "models": list(models),
            "ks": list(ks),
            **SCALE,
        }
    )
    result = run_matrix(spec, append=False)
    # A check may reject a tiny-scale cell, but the scenario must finish.
    assert all(r.metrics is not None for r in result.results), result.results
    return {r.cell.cell_id: r.metrics for r in result.results}


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig(
        nodes_budget=350, rounds=4, snapshots=6, seed=1, ic_probability=0.05
    )


class TestConfig:
    def test_defaults_are_the_pinned_reproduction_scale(self):
        # The scale lives in the matrix specs; the constants are their values.
        cfg = ExperimentConfig()
        assert (cfg.nodes_budget, cfg.rounds, cfg.snapshots) == (1200, 20, 120)
        assert (cfg.seed, cfg.ic_probability) == (2015, 0.08)

    def test_scale_for_caps_at_one(self, config):
        assert config.scale_for("hep") == pytest.approx(350 / 15_233)
        big = ExperimentConfig(nodes_budget=10**9)
        assert big.scale_for("hep") == 1.0

    def test_load_caches(self, config):
        assert config.load("hep") is config.load("hep")

    def test_unknown_dataset(self, config):
        with pytest.raises(ExperimentError, match="unknown dataset"):
            config.load("nope")

    def test_models(self, config):
        assert config.model("ic").name == "ic"
        assert config.model("wc").name == "wc"
        assert config.model("lt").name == "lt"
        with pytest.raises(ExperimentError):
            config.model("lt-ish")

    def test_strategy_spaces_match_paper(self, config):
        assert config.strategy_space("ic").labels == ["mgic", "ddic"]
        assert config.strategy_space("wc").labels == ["mgwc", "sdwc"]


class TestTable3:
    def test_rows(self):
        rows = cells("datasets", datasets=("hep", "phy", "wiki"), ks=(5,))
        assert [cid.split("/")[0] for cid in rows] == ["hep", "phy", "wiki"]
        assert rows["hep/ic/serial/full/k5"]["paper_nodes"] == 15_233
        assert all(r["surrogate_nodes"] > 0 for r in rows.values())


class TestJaccard:
    def test_row_structure(self):
        rows = cells("jaccard_overlap")
        # 2 ks, 3 pairs each.
        assert len(rows) == 2
        for metrics in rows.values():
            pairs = {"phi2-phi2", "phi2-phi1", "phi1-phi1"}
            assert pairs <= set(metrics)
            assert all(0.0 <= metrics[p]["mean"] <= 1.0 for p in pairs)
            assert (metrics["phi1"], metrics["phi2"]) == ("mgic", "ddic")

    def test_same_algorithm_pairs_overlap_most(self):
        rows = cells("jaccard_overlap", models=("wc",))
        same = sum(m["phi2-phi2"]["mean"] for m in rows.values())
        cross = sum(m["phi2-phi1"]["mean"] for m in rows.values())
        # Deterministic-ish heuristic pair overlaps more than cross pair.
        assert same >= cross


class TestSpreadRows:
    def test_structure(self):
        rows = cells("spread_panels")
        # 2 panels x 2 curves competitive, plus 2 singleton baselines.
        assert len(rows) == 2
        for metrics in rows.values():
            for panel in ("vs_phi1", "vs_phi2", "single"):
                assert set(metrics[panel]) == {"phi1", "phi2"}
                assert set(metrics["base"][panel]) == {"phi1", "phi2"}
        assert rows["hep/ic/serial/full/k10"]["base_k"] == 10
        assert rows["hep/ic/serial/full/k5"]["base_k"] == 5

    def test_singleton_upper_bounds_competitive(self):
        """s-φ (no competition) should not be dramatically below the
        competitive spread of the same strategy."""
        for metrics in cells("spread_panels", models=("wc",)).values():
            single = metrics["single"]["phi1"]["mean"]
            comp = metrics["vs_phi1"]["phi1"]["mean"]
            assert comp <= single * 1.3 + 5


class TestMixedVsRandom:
    def test_structure(self):
        rows = cells("mixed_vs_random", models=("wc",))
        assert len(rows) == 2
        for metrics in rows.values():
            assert metrics["mixed"]["p1"]["mean"] >= 0
            assert metrics["random"]["p1"]["mean"] >= 0
            assert 0.0 <= metrics["rho_phi1"]["mean"] <= 1.0


class TestProfileRows:
    def test_structure(self):
        rows = cells("profile_spreads", models=("wc",))
        # per k: 4 pure profiles + the mixed expectation.
        for metrics in rows.values():
            assert len(metrics) == 5
            assert "mixed" in metrics

    def test_mixed_within_pure_envelope(self):
        """The mixed expectation is a convex combination of the pure-profile
        payoffs, so it must lie inside their min/max envelope."""
        for metrics in cells("profile_spreads", models=("wc",)).values():
            pure = [v["p1"]["mean"] for key, v in metrics.items() if key != "mixed"]
            mixed = metrics["mixed"]["p1"]["mean"]
            assert min(pure) - 1e-9 <= mixed <= max(pure) + 1e-9


class TestResponseTime:
    def test_structure(self):
        rows = cells("ne_response_time", models=("ic", "wc"), ks=(5,))
        # 2 models x 2 orders.
        assert len(rows) == 2
        for metrics in rows.values():
            assert set(metrics) == {"r2", "r3"}
            assert all(metrics[r]["ne_s"] >= 0 for r in metrics)
            assert all(metrics[r]["kind"] in {"pure", "mixed"} for r in metrics)
        assert rows["hep/ic/serial/full/k5"]["r2"]["paper_s"] == 0.022

    def test_subsecond_ne_search(self):
        """Table 4's headline: NE search is sub-second at r=z<=3."""
        for metrics in cells("ne_response_time", models=("ic", "wc"), ks=(5,)).values():
            assert all(row["ne_s"] < 1.0 for row in metrics.values())


class TestCoefficients:
    def test_structure(self):
        rows = cells("coefficients", models=("wc",))
        assert len(rows) == 2
        assert {"gamma", "lambda", "alpha+beta"} <= set(
            rows["hep/wc/serial/full/k5"]
        )

    def test_values_in_plausible_ranges(self):
        for r in cells("coefficients", models=("wc",)).values():
            assert 0.3 <= r["lambda"] <= 1.3
            assert 0.3 <= r["gamma"] <= 1.3
            assert 0.7 <= r["alpha+beta"] <= 2.2
