"""Shared fixtures: small deterministic graphs, seeded RNGs, a run journal."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi, karate_like_fixture
from tests.journal_fixture import write_run_journal


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20150531)


@pytest.fixture
def path_graph() -> DiGraph:
    """Directed path 0 -> 1 -> 2 -> 3 -> 4."""
    return DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def star_graph() -> DiGraph:
    """Hub 0 with arcs to 10 leaves."""
    return DiGraph(11, [(0, leaf) for leaf in range(1, 11)])


@pytest.fixture
def diamond_graph() -> DiGraph:
    """0 -> {1, 2} -> 3; two parallel length-2 paths."""
    return DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def cycle_graph() -> DiGraph:
    """Directed 4-cycle."""
    return DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def karate() -> DiGraph:
    return karate_like_fixture()


@pytest.fixture
def random_graph() -> DiGraph:
    return erdos_renyi(60, 240, rng=7)


@pytest.fixture(scope="session")
def run_journal(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """A recorded GetReal run journal (see ``tests/journal_fixture.py``)."""
    return write_run_journal(tmp_path_factory.mktemp("journal") / "run_journal.jsonl")
