"""A fresh GetReal process loads no scipy, in the parent or in a pool worker,
``import repro`` loads no part of the linter, and a query runs without
networkx installed."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def report() -> dict[str, object]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "import_footprint.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_getreal_queries_load_no_scipy(report):
    # The serial query runs MixGreedy and solves for a mixed equilibrium.
    assert report["kinds"] == ["mixed", "mixed"]
    assert report["parent"] == []
    assert report["workers"] and set(report["workers"]) == {0}


def test_import_repro_loads_no_lint_module(report):
    # The runtime contracts live in repro.contracts, so nothing on the
    # import path of the library, the bench child or a pool worker pulls
    # in the linter.
    assert report["lint"] == []


#: One seeded GetReal query in an interpreter where networkx cannot be
#: imported (a ``None`` entry in ``sys.modules`` makes the import fail).
NO_NETWORKX_QUERY = """
import sys
sys.modules["networkx"] = None
import repro
graph = repro.hep(scale=0.02)
model = repro.IndependentCascade(0.05)
strategies = [repro.MixGreedy(model, 8), repro.DegreeDiscount(0.05)]
result = repro.get_real(graph, model, strategies, num_groups=2, k=2, rounds=10, rng=0)
print(result.kind)
"""


def test_getreal_runs_without_networkx():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", NO_NETWORKX_QUERY],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["mixed"]
