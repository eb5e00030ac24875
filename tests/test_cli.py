"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graphs.delta import EdgeDelta, merge_delta
from repro.graphs.generators import karate_like_fixture
from repro.graphs.loaders import load_edge_list, save_edge_list
from repro.graphs.store import GraphStore


@pytest.fixture
def karate_file(tmp_path):
    path = tmp_path / "karate.txt"
    save_edge_list(karate_like_fixture(), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_args(self):
        args = build_parser().parse_args(["stats", "hep", "--scale", "0.05"])
        assert args.command == "stats"
        assert args.scale == 0.05

    def test_getreal_defaults(self):
        args = build_parser().parse_args(["getreal", "hep"])
        assert args.strategies == "mgic,ddic"
        assert args.model == "ic"
        assert args.groups == 2


class TestStatsCommand:
    def test_dataset(self, capsys):
        assert main(["stats", "hep", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "edges" in out

    def test_edge_list_file(self, karate_file, capsys):
        assert main(["stats", karate_file]) == 0
        out = capsys.readouterr().out
        assert "34" in out

    def test_unknown_target(self):
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["stats", "not-a-thing"])


class TestSeedsCommand:
    def test_ddic(self, karate_file, capsys):
        assert main(["seeds", karate_file, "--algorithm", "ddic", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "ddic seeds" in out

    def test_unknown_algorithm(self, karate_file):
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["seeds", karate_file, "--algorithm", "nope"])


class TestSeedsDelta:
    DELTA = {"added": [[0, 5], [3, 9]], "removed": [[1, 2]]}

    def _write(self, tmp_path, text):
        path = tmp_path / "delta.json"
        path.write_text(text)
        return str(path)

    def test_delta_matches_patched_graph(self, karate_file, tmp_path, capsys):
        # seeds --delta must answer exactly what seeds answers on the stored
        # merge_delta graph: same algorithm, same seed, same output.  A graph
        # store keeps the patched CSR (and its edge ids) bit for bit.
        graph, _ = load_edge_list(karate_file)
        patched = merge_delta(
            graph,
            EdgeDelta.of(added=self.DELTA["added"], removed=self.DELTA["removed"]),
        ).graph
        GraphStore(tmp_path / "store").save(patched, "patched")
        args = ["--algorithm", "mgic", "--k", "3", "--seed", "7"]

        assert main(["seeds", str(tmp_path / "store" / "patched"), *args]) == 0
        expected = capsys.readouterr().out
        delta_file = self._write(tmp_path, json.dumps(self.DELTA))
        assert main(["seeds", karate_file, *args, "--delta", delta_file]) == 0
        assert capsys.readouterr().out == expected
        assert expected.startswith("mgic seeds (k=3): ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"added": [[1, 2, 3]]}', "pairs"),
            ('{"removed": [[0]]}', "pairs"),
            ('{"added": [[0, 34]]}', "endpoints"),
            ('{"added": [[0, 1]', "delimiter"),
            ('[[0, 1]]', "JSON object"),
            ('{"add": [[0, 1]]}', "JSON object"),
            (None, "No such file"),
        ],
        ids=["triple", "single", "out-of-range", "malformed", "not-object",
             "unknown-key", "missing"],
    )
    def test_bad_delta_file_exits_with_message(
        self, karate_file, tmp_path, capsys, text, message
    ):
        path = (
            str(tmp_path / "missing.json") if text is None else self._write(tmp_path, text)
        )
        with pytest.raises(SystemExit, match=message) as info:
            main(["seeds", karate_file, "--k", "3", "--delta", path])
        assert str(info.value).startswith("bad delta file ")
        assert "\n" not in str(info.value)
        # The file is read before any selection runs, so nothing is printed.
        assert capsys.readouterr().out == ""


class TestOverlapCommand:
    def test_runs(self, karate_file, capsys):
        assert (
            main(
                [
                    "overlap",
                    karate_file,
                    "--first",
                    "ddic",
                    "--second",
                    "random",
                    "--k",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Jaccard(ddic, random)" in out


class TestSpreadCommand:
    def test_runs(self, karate_file, capsys):
        code = main(
            [
                "spread",
                karate_file,
                "--algorithm",
                "ddic",
                "--k",
                "3",
                "--rounds",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ddic @k=3" in out
        assert "+/-" in out

    def test_wc_model(self, karate_file, capsys):
        assert (
            main(["spread", karate_file, "--model", "wc", "--k", "2", "--rounds", "5"])
            == 0
        )


class TestCompeteCommand:
    def test_runs(self, karate_file, capsys):
        code = main(
            [
                "compete",
                karate_file,
                "--first",
                "ddic",
                "--second",
                "random",
                "--k",
                "3",
                "--rounds",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "head-to-head" in out
        assert "seed overlap" in out
        assert "ddic" in out and "random" in out


class TestBlockCommand:
    def test_runs(self, karate_file, capsys):
        code = main(
            [
                "block",
                karate_file,
                "--rival",
                "ddic",
                "--rival-k",
                "3",
                "--k",
                "2",
                "--rounds",
                "5",
                "--pool",
                "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "blocked" in out
        assert "blockers:" in out


class TestGetRealCommand:
    def test_full_pipeline(self, karate_file, capsys):
        code = main(
            [
                "getreal",
                karate_file,
                "--strategies",
                "ddic,random",
                "--k",
                "3",
                "--rounds",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "equilibrium" in out
        assert "estimated payoffs" in out

    def test_lt_model(self, karate_file, capsys):
        code = main(
            [
                "getreal",
                karate_file,
                "--strategies",
                "sdwc,random",
                "--model",
                "lt",
                "--k",
                "3",
                "--rounds",
                "4",
            ]
        )
        assert code == 0

    def test_needs_two_strategies(self, karate_file):
        with pytest.raises(SystemExit, match="at least two"):
            main(["getreal", karate_file, "--strategies", "ddic"])


class TestObsCommands:
    @pytest.fixture(autouse=True)
    def _journal(self, run_journal):
        self.FIXTURE = str(run_journal)

    def test_obs_trace_renders_span_tree(self, capsys):
        assert main(["obs", "trace", self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "getreal.run" in out
        assert "exec.batch" in out
        assert "self" in out  # self-time column present

    def test_obs_trace_max_children_elides(self, capsys):
        assert main(["obs", "trace", self.FIXTURE, "--max-children", "1"]) == 0
        assert "more child span(s)" in capsys.readouterr().out

    def test_obs_export_prom_is_parseable(self, capsys):
        from repro.obs.export import parse_prometheus_text

        assert main(
            ["obs", "export", "--journal", self.FIXTURE, "--format", "prom"]
        ) == 0
        samples = parse_prometheus_text(capsys.readouterr().out)
        assert samples["repro_exec_batches_total"] == 2.0
        assert samples["repro_exec_jobs_completed_total"] == 3.0

    def test_obs_export_json(self, capsys):
        assert main(
            ["obs", "export", "--journal", self.FIXTURE, "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["exec.batches"] == 2

    def test_obs_export_live_registry_default(self, capsys):
        # Without --journal the command exports this process's registry;
        # exercising the parser is enough (contents depend on test order).
        from repro.obs.export import parse_prometheus_text

        assert main(["obs", "export", "--format", "prom"]) == 0
        parse_prometheus_text(capsys.readouterr().out)  # must not raise

    def test_monitor_once_smoke(self, capsys):
        assert main(["monitor", self.FIXTURE, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro run monitor" in out
        assert "get_real" in out
        assert "batches: 2" in out

    def test_monitor_missing_file_renders_empty_dashboard(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "nope.jsonl"), "--once"]) == 0
        assert "(no runs yet)" in capsys.readouterr().out
