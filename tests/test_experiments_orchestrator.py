"""Tests for the declarative scenario-matrix orchestrator and its CLI."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError, ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import MatrixSpec, run_matrix
from repro.experiments.scenarios import (
    _SCENARIOS,
    get_scenario,
    registered_scenarios,
    scenario,
)
from repro.experiments.trajectory import TrajectoryStore
from repro.obs.journal import read_journal

SPEC = {
    "name": "tiny",
    "scenario": "competitive_spread",
    "datasets": ["hep"],
    "models": ["ic"],
    "backends": ["serial"],
    "symmetries": ["full"],
    "ks": [3],
    "nodes": 150,
    "rounds": 3,
    "snapshots": 4,
    "seed": 7,
}


def spec_with(tmp_path, **overrides):
    data = {**SPEC, "trajectory": str(tmp_path / "BENCH_tiny.json"), **overrides}
    return MatrixSpec.from_dict(data)


class TestMatrixSpec:
    def test_from_dict_round_trip(self, tmp_path):
        spec = spec_with(tmp_path)
        assert spec.name == "tiny"
        assert spec.datasets == ("hep",)
        assert spec.ks == (3,)
        assert spec.config_overrides() == {
            "nodes_budget": 150, "rounds": 3, "snapshots": 4, "seed": 7,
        }
        assert spec.as_dict()["scenario"] == "competitive_spread"

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**SPEC, "trajectory": "BENCH_t.json"}))
        assert MatrixSpec.from_file(path).name == "tiny"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="not found"):
            MatrixSpec.from_file(tmp_path / "nope.json")

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ExperimentError, match="not valid JSON"):
            MatrixSpec.from_file(path)

    @pytest.mark.parametrize(
        ("overrides", "match"),
        [
            ({"name": ""}, "needs a 'name'"),
            ({"typo_key": 1}, "unknown matrix spec keys"),
            ({"datasets": ["nope"]}, "unknown dataset"),
            ({"models": ["lt"]}, "unknown model"),
            ({"backends": ["gpu"]}, "unknown backend"),
            ({"scenario": "nope"}, "unknown scenario"),
            ({"ks": [0]}, "must be >= 1"),
            ({"rounds": 0}, "must be >= 1"),
            ({"datasets": []}, "must not be empty"),
        ],
    )
    def test_validation_errors(self, tmp_path, overrides, match):
        with pytest.raises(ExperimentError, match=match):
            spec_with(tmp_path, **overrides)

    def test_unknown_kernel_and_symmetry_raise(self, tmp_path):
        # There is one diffusion kernel, so a kernels axis is an unknown key.
        with pytest.raises(ExperimentError, match="unknown matrix spec keys"):
            spec_with(tmp_path, kernels=["numpy"])
        with pytest.raises(Exception):
            spec_with(tmp_path, symmetries=["sideways"])

    def test_expand_is_a_deterministic_cross_product(self, tmp_path):
        spec = spec_with(
            tmp_path, models=["ic", "wc"], symmetries=["full", "reduce"], ks=[2, 3]
        )
        cells = spec.expand()
        assert len(cells) == 8
        assert cells[0].cell_id == "hep/ic/serial/full/k2"
        assert cells[-1].cell_id == "hep/wc/serial/reduce/k3"
        # dataset > model > backend > symmetry > k axis order
        assert [c.model for c in cells[:4]] == ["ic"] * 4

    def test_scalar_axis_values_are_promoted_to_tuples(self, tmp_path):
        spec = spec_with(tmp_path, models="wc", ks=4)
        assert spec.models == ("wc",)
        assert spec.ks == (4,)


class TestScenarioRegistry:
    def test_builtins_registered(self):
        names = {row["scenario"] for row in registered_scenarios()}
        assert {"competitive_spread", "getreal", "payoff_speedup"} <= names

    def test_unknown_scenario_raises(self):
        with pytest.raises(ExperimentError, match="unknown scenario"):
            get_scenario("nope")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ExperimentError, match="already registered"):
            scenario("competitive_spread", "dup")(lambda cell, config: {})

    def test_registration_and_rows(self):
        @scenario("_test_dummy", "a test-only scenario")
        def dummy(cell, config):
            return {"x": 1.0}

        try:
            assert get_scenario("_test_dummy") is dummy
            rows = registered_scenarios()
            assert {"scenario": "_test_dummy", "summary": "a test-only scenario"} in rows
        finally:
            _SCENARIOS.pop("_test_dummy")


class TestRunMatrix:
    def test_end_to_end_writes_everything(self, tmp_path):
        spec = spec_with(tmp_path)
        out = tmp_path / "out"
        result = run_matrix(spec, output_dir=out)
        assert result.ok
        (cell_result,) = result.results
        assert cell_result.cell.cell_id == "hep/ic/serial/full/k3"
        assert set(cell_result.metrics) == {
            "p1_spread", "p2_spread", "seed_overlap",
        }
        # manifest + cells table on disk
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["cells_total"] == 1
        assert (out / "cells.txt").exists()
        # one trajectory entry through the atomic store
        history = TrajectoryStore(spec.trajectory).read()
        assert len(history) == 1
        assert history[0]["matrix"] == "tiny"
        assert history[0]["cells"][cell_result.cell.cell_id]["status"] == "ok"
        # journal carries the run envelope and one span per cell
        events = read_journal(out / "journal.jsonl")
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        spans = [e for e in events if e["event"] == "span"]
        assert any(e.get("cell") == cell_result.cell.cell_id for e in spans)

    def test_runs_are_bit_identical_for_fixed_seed(self, tmp_path):
        spec = spec_with(tmp_path)
        r1 = run_matrix(spec, output_dir=None)
        r2 = run_matrix(spec, output_dir=None)
        m1 = r1.entry["cells"]["hep/ic/serial/full/k3"]["metrics"]
        m2 = r2.entry["cells"]["hep/ic/serial/full/k3"]["metrics"]
        assert m1 == m2
        assert len(TrajectoryStore(spec.trajectory).read()) == 2

    def test_failing_cell_is_recorded_not_raised(self, tmp_path, monkeypatch):
        def boom(cell, config):
            raise ValueError("scenario exploded")

        monkeypatch.setitem(_SCENARIOS, "_boom", (boom, "always fails"))
        spec = spec_with(tmp_path, scenario="_boom")
        result = run_matrix(spec, output_dir=tmp_path / "out")
        assert not result.ok
        (cell_result,) = result.results
        assert cell_result.status == "failed"
        assert "ValueError: scenario exploded" in cell_result.error
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        entry = TrajectoryStore(spec.trajectory).last()
        cell = entry["cells"]["hep/ic/serial/full/k3"]
        assert cell["status"] == "failed"
        assert "metrics" not in cell

    def test_append_false_skips_trajectory(self, tmp_path):
        spec = spec_with(tmp_path)
        run_matrix(spec, append=False)
        assert TrajectoryStore(spec.trajectory).read() == []

    def test_append_without_trajectory_path_raises(self, tmp_path):
        spec = MatrixSpec.from_dict(SPEC)
        with pytest.raises(ExperimentError, match="no 'trajectory'"):
            run_matrix(spec)


class TestCli:
    def write_spec(self, tmp_path, **overrides):
        data = {**SPEC, "trajectory": str(tmp_path / "BENCH_cli.json"), **overrides}
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(data))
        return path

    def test_list_shows_scenarios_and_cells(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        assert main(["experiments", "list", "--matrix", str(path)]) == 0
        captured = capsys.readouterr().out
        assert "competitive_spread" in captured
        assert "hep/ic/serial/full/k3" in captured

    def test_run_then_gate_round_trip(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        out = tmp_path / "results"
        run_args = ["experiments", "run", "--matrix", str(path), "--output", str(out)]
        assert main(run_args) == 0
        assert main(run_args) == 0  # second run seeds a comparable baseline
        assert main(["experiments", "gate", "--matrix", str(path)]) == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured

    def test_gate_fails_on_injected_regression(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        out = tmp_path / "results"
        assert main(["experiments", "run", "--matrix", str(path), "--output", str(out)]) == 0
        trajectory = tmp_path / "BENCH_cli.json"
        history = json.loads(trajectory.read_text())
        doctored = json.loads(json.dumps(history[-1]))
        doctored["timestamp"] = "2099-01-01T00:00:00+00:00"
        cell = doctored["cells"]["hep/ic/serial/full/k3"]
        cell["metrics"]["p1_spread"]["mean"] += 100.0
        history.append(doctored)
        trajectory.write_text(json.dumps(history))
        assert main(["experiments", "gate", "--matrix", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gate_via_manifest_output_dir(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        out = tmp_path / "results"
        assert main(["experiments", "run", "--matrix", str(path), "--output", str(out)]) == 0
        assert main(["experiments", "gate", "--output", str(out)]) == 0

    def test_run_reports_failed_cells_nonzero(self, tmp_path, monkeypatch, capsys):
        def boom(cell, config):
            raise RuntimeError("nope")

        monkeypatch.setitem(_SCENARIOS, "_cli_boom", (boom, "always fails"))
        path = self.write_spec(tmp_path, scenario="_cli_boom")
        code = main(
            ["experiments", "run", "--matrix", str(path), "--output", str(tmp_path / "r")]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_bad_spec_exits_with_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SPEC, "datasets": ["nope"]}))
        with pytest.raises(SystemExit):
            main(["experiments", "run", "--matrix", str(path)])


class TestWorkersEnv:
    @pytest.mark.parametrize("raw", ["0", "-2", "abc"])
    def test_invalid_workers_env_raises(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ConfigError, match="REPRO_WORKERS"):
            ExperimentConfig()

    def test_valid_workers_env_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert ExperimentConfig().workers == 3

    def test_unset_workers_env_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert ExperimentConfig().workers is None

    def test_blank_workers_env_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "   ")
        assert ExperimentConfig().workers is None
