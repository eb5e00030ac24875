"""Smoke tests: the example scripts run to completion.

Only the fast examples run under pytest (the heavier ones are exercised
manually or through their matrix specs); each is invoked as a subprocess so
import side effects and ``__main__`` guards are covered too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SRC = Path(__file__).resolve().parents[1] / "src"


def _env(base: dict | None = None) -> dict:
    """Subprocess env with the repo's src/ on PYTHONPATH.

    Examples import :mod:`repro`, which is not installed in the test
    environment — the interpreter finds it through PYTHONPATH, so any env
    we hand to a subprocess must carry (or gain) the src path.
    """
    env = dict(os.environ) if base is None else dict(base)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    )
    return env


def _run(script: str, timeout: int = 240) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_env(),
    )


class TestExampleScripts:
    def test_all_examples_exist(self):
        expected = {
            "quickstart.py",
            "smartphone_war.py",
            "three_player_market.py",
            "strategy_tournament.py",
            "market_timeline.py",
            "custom_dataset.py",
            "reproduce_paper.py",
        }
        assert expected <= {p.name for p in EXAMPLES.glob("*.py")}

    def test_quickstart_runs(self):
        result = _run("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "equilibrium type" in result.stdout
        assert "seeds to target" in result.stdout

    def test_reproduce_paper_rejects_unknown(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "reproduce_paper.py"), "fig99"],
            capture_output=True,
            text=True,
            timeout=60,
            env=_env(),
        )
        assert result.returncode == 2
        assert "unknown experiment" in result.stdout

    def test_reproduce_paper_table3(self, monkeypatch):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "reproduce_paper.py"), "table3"],
            capture_output=True,
            text=True,
            timeout=120,
            env=_env(),
        )
        assert result.returncode == 0, result.stderr
        assert "Table 3" in result.stdout
        assert "wiki/ic/serial/full/k10" in result.stdout
