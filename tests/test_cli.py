"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graphs.generators import karate_like_fixture
from repro.graphs.loaders import save_edge_list


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["monitor", "x.jsonl"], "invalid choice: 'monitor'"),
            (["obs", "export"], "invalid choice: 'export'"),
            (["seeds", "hep", "--delta", "f.json"], "unrecognized arguments: --delta"),
        ],
        ids=["monitor", "obs-export", "seeds-delta"],
    )
    def test_removed_commands_are_unknown(self, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert message in capsys.readouterr().err


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
