"""A fresh GetReal process loads no scipy, in the parent or in a pool worker."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_getreal_queries_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "import_footprint.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    # The serial query runs MixGreedy and solves for a mixed equilibrium.
    assert report["kinds"] == ["mixed", "mixed"]
    assert report["parent"] == []
    assert report["workers"] and set(report["workers"]) == {0}
