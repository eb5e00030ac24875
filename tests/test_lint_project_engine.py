"""Engine and CLI tests for the project analyzer."""

import json
from pathlib import Path

from repro.lint.cli import main as lint_main
from repro.lint.engine import PARSE_ERROR_CODE
from repro.lint.project import analyze_project, module_name_for


def make_package(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "mypkg"
    root.mkdir()
    (root / "__init__.py").write_text("", encoding="utf-8")
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        if not (target.parent / "__init__.py").exists():
            (target.parent / "__init__.py").write_text("", encoding="utf-8")
        target.write_text(source, encoding="utf-8")
    return root


VIOLATION = (
    "class SpreadJob:\n"
    "    def run(self, generator):\n"
    "        return default_rng()\n"
)


class TestModuleNameFor:
    def test_plain_module(self):
        root = Path("/repo/src/repro")
        path = Path("/repo/src/repro/exec/jobs.py")
        assert module_name_for(path, root, "repro") == "repro.exec.jobs"

    def test_init_is_the_package(self):
        root = Path("/repo/src/repro")
        path = Path("/repo/src/repro/exec/__init__.py")
        assert module_name_for(path, root, "repro") == "repro.exec"

    def test_top_level_init(self):
        root = Path("/repo/src/repro")
        path = Path("/repo/src/repro/__init__.py")
        assert module_name_for(path, root, "repro") == "repro"


class TestAnalyzeProject:
    def test_finds_cross_module_violation(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "util.py": "def helper():\n    return default_rng()\n",
                "jobs.py": (
                    "from mypkg.util import helper\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        return helper()\n"
                ),
            },
        )
        report = analyze_project(root, jobs=1)
        assert report.modules_analyzed == 3
        codes = [f.code for f in report.findings]
        assert codes == ["RP010"]
        assert "mypkg.jobs:SpreadJob.run" in report.findings[0].trace

    def test_parse_error_becomes_rp999(self, tmp_path):
        root = make_package(tmp_path, {"broken.py": "def broken(:\n"})
        report = analyze_project(root, jobs=1)
        assert len(report.parse_errors) == 1
        assert report.parse_errors[0].code == PARSE_ERROR_CODE
        assert "broken.py" in report.parse_errors[0].path

    def test_unreadable_file_becomes_rp999(self, tmp_path):
        root = make_package(tmp_path, {"good.py": "x = 1\n"})
        # a directory named *.py is discovered but cannot be read as a file
        (root / "odd.py").mkdir()
        report = analyze_project(root, jobs=1)
        assert len(report.parse_errors) == 1
        assert "unreadable" in report.parse_errors[0].message

    def test_parallel_extraction_matches_serial(self, tmp_path):
        files = {
            f"mod{i}.py": f"def fn{i}():\n    return {i}\n" for i in range(20)
        }
        files["bad.py"] = VIOLATION
        root = make_package(tmp_path, files)
        serial = analyze_project(root, jobs=1)
        parallel = analyze_project(root, jobs=2)
        assert [f.as_dict() for f in serial.all_findings] == [
            f.as_dict() for f in parallel.all_findings
        ]

    def test_select_and_ignore(self, tmp_path):
        root = make_package(tmp_path, {"bad.py": VIOLATION})
        assert analyze_project(root, jobs=1, select=["RP010"]).findings
        assert not analyze_project(root, jobs=1, ignore=["RP010"]).findings


class TestProjectCli:
    def test_clean_package_exits_zero(self, tmp_path, capsys):
        root = make_package(tmp_path, {"ok.py": "def fn():\n    return 1\n"})
        assert lint_main([str(root)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = make_package(tmp_path, {"bad.py": VIOLATION})
        assert lint_main([str(root)]) == 1
        assert "RP010" in capsys.readouterr().out

    def test_parse_error_exits_one(self, tmp_path, capsys):
        root = make_package(tmp_path, {"broken.py": "def broken(:\n"})
        assert lint_main([str(root)]) == 1
        assert PARSE_ERROR_CODE in capsys.readouterr().out

    def test_parse_error_reported_once(self, tmp_path, capsys):
        """Both passes read the broken file; only one RP999 is printed."""
        root = make_package(tmp_path, {"broken.py": "def broken(:\n"})
        assert lint_main(["--format", "json", str(root)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["by_code"] == {PARSE_ERROR_CODE: 1}

    def test_json_carries_call_path_trace(self, tmp_path, capsys):
        root = make_package(
            tmp_path,
            {
                "util.py": "def helper():\n    return default_rng()\n",
                "jobs.py": (
                    "from mypkg.util import helper\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        return helper()\n"
                ),
            },
        )
        assert lint_main(["--format", "json", str(root)]) == 1
        (finding,) = json.loads(capsys.readouterr().out)["findings"]
        assert finding["code"] == "RP010"
        assert "mypkg.jobs:SpreadJob.run" in finding["trace"]

    def test_select_runs_project_rules_only(self, tmp_path, capsys):
        root = make_package(
            tmp_path, {"core/bad.py": VIOLATION + "def f(x):\n    return x == 0.0\n"}
        )
        assert lint_main(["--select", "RP010", str(root)]) == 1
        out = capsys.readouterr().out
        assert "RP010" in out and "RP002" not in out
        assert lint_main(["--ignore", "RP010", str(root)]) == 1
        out = capsys.readouterr().out
        assert "RP002" in out and "RP010" not in out

    def test_each_file_parsed_once(self, tmp_path, monkeypatch, capsys):
        """Per-file and project rules share one parse of every file."""
        import ast
        from collections import Counter

        root = make_package(
            tmp_path,
            {
                "mod.py": "def fn():\n    return 1\n",
                "core/bad.py": VIOLATION + "def f(x):\n    return x == 0.0\n",
            },
        )
        loose = tmp_path / "loose.py"
        loose.write_text("def g(y):\n    return y == 1.5\n", encoding="utf-8")
        parsed: Counter[str] = Counter()
        real = ast.parse

        def counting(source, filename="<unknown>", *args, **kwargs):
            parsed[str(filename)] += 1
            return real(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting)
        # The package, one of its files again, and a file outside it.
        argv = ["--jobs", "1", str(root), str(root / "mod.py"), str(loose)]
        assert lint_main(argv) == 1
        out = capsys.readouterr().out
        assert "RP010" in out and out.count("RP002") == 2
        expected = sorted([*(str(p) for p in root.rglob("*.py")), str(loose)])
        assert sorted(parsed) == expected
        assert set(parsed.values()) == {1}

    def test_unknown_code_is_usage_error(self, tmp_path, capsys):
        root = make_package(tmp_path, {"ok.py": "x = 1\n"})
        assert lint_main(["--select", "RP777", str(root)]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_list_rules_includes_project_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RP001", "RP010"):
            assert code in out


class TestPerFileCli:
    def test_unreadable_file_exits_one_with_diagnostic(self, tmp_path, capsys):
        target = tmp_path / "odd.py"
        target.mkdir()  # directory discovered as a .py path
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert PARSE_ERROR_CODE in out and "unreadable" in out

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 1
        assert PARSE_ERROR_CODE in capsys.readouterr().out
