"""Generate the run-journal fixture the observability tests read.

A tiny seeded GetReal run (MGIC vs DDIC, two groups, on the karate-like
fixture graph) recorded through a :class:`~repro.obs.journal.RunJournal`
on the serial executor.  Its shape is fixed by the parameters: one
selection batch of 2 jobs (MixGreedy's selection against each group's
snapshot pool), plus one simulation batch of 1 job carrying the 4 profile
cells — 2 batches, 3 jobs — and 4 selection-cache misses.

Generated rather than recorded, so it always matches the current journal
writers.  ``tests/conftest.py`` builds it once per test session; CI and
manual checks run this module directly::

    PYTHONPATH=src python tests/journal_fixture.py run_journal.jsonl
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import get_real
from repro.algorithms.degree_discount import DegreeDiscount
from repro.algorithms.greedy import MixGreedy
from repro.cache import clear_caches
from repro.cascade.ic import IndependentCascade
from repro.exec import Executor
from repro.graphs.generators import karate_like_fixture
from repro.obs.journal import RunJournal, attached

def write_run_journal(path: str | Path) -> Path:
    """Record the fixture run into *path* (overwritten) and return it."""
    path = Path(path)
    path.unlink(missing_ok=True)
    # Start from empty memos, so all 4 selections miss whatever ran before.
    clear_caches()
    model = IndependentCascade(0.1)
    with (
        Executor("serial") as executor,
        RunJournal(path) as journal,
        attached(journal),
    ):
        get_real(
            karate_like_fixture(),
            model,
            [MixGreedy(model, 100, executor=executor), DegreeDiscount(0.1)],
            num_groups=2,
            k=3,
            rounds=4,
            rng=2015,
            executor=executor,
            symmetry="full",
        )
    # Leave no memoized selections behind for tests that run afterwards.
    clear_caches()
    return path


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUTPUT.jsonl")
    print(write_run_journal(sys.argv[1]))
