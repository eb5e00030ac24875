"""Engine, CLI, and self-check tests for reprolint."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import format_findings, format_json, lint_paths, lint_source
from repro.lint.base import Finding
from repro.lint.cli import main as lint_main
from repro.lint.engine import (
    JSON_SCHEMA_VERSION,
    PARSE_ERROR_CODE,
    module_parts,
    parse_suppressions,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


class TestModuleParts:
    def test_strips_src_repro_prefix(self):
        path = Path("src/repro/cascade/competitive.py")
        assert module_parts(path) == ("cascade", "competitive.py")

    def test_absolute_installed_layout(self):
        path = Path("/site-packages/repro/game/mixed.py")
        assert module_parts(path) == ("game", "mixed.py")

    def test_paths_outside_package_keep_parts(self):
        assert module_parts(Path("game/fixture.py")) == ("game", "fixture.py")


class TestSuppressions:
    def test_specific_codes(self):
        sup = parse_suppressions("x = 1  # reprolint: disable=RP001,RP004\n")
        assert sup == {1: {"RP001", "RP004"}}

    def test_blanket_disable(self):
        sup = parse_suppressions("x = 1  # reprolint: disable\n")
        assert sup == {1: None}

    def test_blanket_disable_silences_all_rules(self):
        found = lint_source(
            "def f(graph, k):  # reprolint: disable\n"
            "    return graph == 0.0  # reprolint: disable\n",
            "core/x.py",
        )
        assert found == []

    def test_suppression_is_line_scoped(self):
        found = lint_source(
            "def f(graph, k):  # reprolint: disable\n"
            "    return graph == 0.0\n",
            "core/x.py",
        )
        assert [f.code for f in found] == ["RP002"]

    def test_unrelated_code_not_suppressed(self):
        found = lint_source(
            "def f(x):\n    return x == 0.0  # reprolint: disable=RP001\n",
            "core/x.py",
            select=["RP002"],
        )
        assert [f.code for f in found] == ["RP002"]


class TestLintSource:
    def test_syntax_error_yields_parse_finding(self):
        found = lint_source("def broken(:\n", "core/x.py")
        assert [f.code for f in found] == [PARSE_ERROR_CODE]

    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="RP042"):
            lint_source("x = 1\n", "core/x.py", select=["RP042"])

    def test_ignore_removes_rule(self):
        source = "import random\n\ndef f(x):\n    return x == 0.0\n"
        assert {f.code for f in lint_source(source, "core/x.py")} == {
            "RP001",
            "RP002",
        }
        assert {f.code for f in lint_source(source, "core/x.py", ignore=["RP002"])} == {
            "RP001"
        }

    def test_findings_sorted_by_location(self):
        source = (
            "def a(x):\n    return x == 0.0\n\n"
            "def b(y):\n    return y == 1.0\n"
        )
        found = lint_source(source, "core/x.py", select=["RP002"])
        assert [f.line for f in found] == [2, 5]


class TestLintPaths:
    def test_directory_walk_and_scoping(self, tmp_path):
        game = tmp_path / "game"
        game.mkdir()
        (game / "bad.py").write_text("def f(x):\n    return x == 0.0\n")
        (tmp_path / "free.py").write_text("def f(x):\n    return x == 0.0\n")
        found = lint_paths([tmp_path], select=["RP002"])
        assert len(found) == 1
        assert found[0].path.endswith("bad.py")

    def test_single_file(self, tmp_path):
        target = tmp_path / "core"
        target.mkdir()
        snippet = target / "x.py"
        snippet.write_text("def f(x):\n    return x == 0.0\n")
        found = lint_paths([snippet], select=["RP002"])
        assert [f.code for f in found] == ["RP002"]


class TestOutputFormats:
    FINDINGS = [
        Finding(
            path="core/x.py",
            line=3,
            col=5,
            code="RP002",
            message="exact float == comparison",
            hint="use nearly_zero",
        )
    ]

    def test_human_format_contains_location_and_hint(self):
        text = format_findings(self.FINDINGS)
        assert "core/x.py:3:5: RP002 exact float == comparison" in text
        assert "hint: use nearly_zero" in text
        assert "1 finding(s)" in text

    def test_human_format_clean(self):
        assert format_findings([]) == "reprolint: no findings"

    def test_json_schema(self):
        document = json.loads(format_json(self.FINDINGS))
        assert document["version"] == JSON_SCHEMA_VERSION
        assert set(document) == {"version", "findings", "summary"}
        (finding,) = document["findings"]
        assert set(finding) == {"path", "line", "col", "code", "message", "hint"}
        assert finding["line"] == 3
        assert finding["code"] == "RP002"
        summary = document["summary"]
        assert summary["total"] == 1
        assert summary["by_code"] == {"RP002": 1}
        assert summary["files"] == 1

    def test_json_empty_document(self):
        document = json.loads(format_json([]))
        assert document["findings"] == []
        assert document["summary"]["total"] == 0


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "ok.py").write_text("def f(x: int) -> int:\n    return x\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "bad.py").write_text("def f(x):\n    return x == 0.0\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RP002" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nowhere")]) == 2

    def test_exit_two_on_unknown_code(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "RP042"]) == 2

    def test_json_flag(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "bad.py").write_text("def f(x):\n    return x == 0.0\n")
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == JSON_SCHEMA_VERSION
        assert set(document) == {"version", "findings", "summary"}
        (finding,) = document["findings"]
        assert set(finding) == {"path", "line", "col", "code", "message", "hint"}
        assert document["summary"]["by_code"] == {"RP002": 1}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("RP")]
        assert listed == ["RP001", "RP002", "RP003", "RP004", "RP009"]

    def test_unparsable_and_unreadable_files_exit_one(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "binary.py").write_bytes(b"x = '\xff\xfe'\n")
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        messages = sorted(f["message"] for f in document["findings"])
        assert document["summary"]["by_code"] == {"RP999": 2}
        assert messages[0].startswith("file does not parse")
        assert messages[1].startswith("file unreadable")


class TestSelfCheck:
    def test_src_tree_is_clean(self):
        """The library passes its own per-file rules."""
        findings = lint_paths([SRC])
        assert findings == [], format_findings(findings)

    def test_module_entry_point(self):
        """``python -m repro lint`` runs the per-file rules over ``src`` and
        exits 0 on the shipped tree."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "reprolint: no findings" in result.stdout

    def test_removed_options_are_unknown(self):
        for option in (
            ["--project"],
            ["--format", "sarif"],
            ["--format", "text"],
            ["--changed-only"],
            ["--update-baseline"],
            ["--baseline", "b.json"],
            ["--show-baselined"],
            ["--jobs", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                lint_main([*option, str(SRC)])
            assert exc.value.code == 2, option
