"""Payoff cells packed into jobs: packing invariance, the bitset budget, telemetry.

Phase 2 of :func:`~repro.core.payoff.estimate_payoff_table` turns every
(draw, profile) cell into a :class:`~repro.exec.jobs.ProfileCell` with its
own spawned stream and packs the cells into jobs
(:func:`~repro.core.payoff.pack_cells`).  A cell's estimates must not
depend on the packing, the backend or the worker count; no job's claimed
bitset may exceed the graph's out-CSR bytes; and the per-cell telemetry
must still add up.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import DegreeDiscount, RandomSeeds
from repro.cascade.base import CascadeModel
from repro.cascade.ic import IndependentCascade
from repro.cascade.kernels import out_csr_bytes
from repro.cascade.wc import WeightedCascade
from repro.core import payoff
from repro.core.payoff import estimate_payoff_table, pack_cells
from repro.core.strategy import StrategySpace
from repro.exec import CompetitiveJob, Executor, ProfileCell
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi
from repro.obs import metrics
from repro.obs.journal import RunJournal, attached, read_journal
from repro.utils.rng import as_rng

GRAPH = erdos_renyi(80, 320, rng=5)


class _UnequalCascade(CascadeModel):
    """A cascade whose in-edges to a node have different probabilities."""

    name = "unequal"

    def edge_probabilities(self, graph: DiGraph) -> np.ndarray:
        return np.linspace(0.05, 0.45, graph.num_edges)


def _csr_bits(graph: DiGraph) -> int:
    return 8 * out_csr_bytes(graph)


def _table(executor, model=None, num_groups=2, symmetry="full", graph=GRAPH, rounds=9):
    return estimate_payoff_table(
        graph,
        model or IndependentCascade(0.15),
        StrategySpace([DegreeDiscount(0.15), RandomSeeds()]),
        num_groups=num_groups,
        k=4,
        rounds=rounds,
        seed_draws=2,
        rng=2015,
        executor=executor,
        symmetry=symmetry,
    )


def _flatten(table):
    return {
        profile: [(e.mean, e.std, e.samples) for e in ests]
        for profile, ests in table.estimates.items()
    }


class TestPackingInvariance:
    """Payoff tables are bit-identical however the cells are packed."""

    @pytest.mark.parametrize(
        ("model", "num_groups", "symmetry"),
        [
            (IndependentCascade(0.15), 2, "full"),
            (WeightedCascade(), 3, "full"),
            (IndependentCascade(0.15), 3, "reduce"),
            (_UnequalCascade(), 3, "full"),
        ],
        ids=["ic-r2", "wc-r3", "ic-r3-reduce", "unequal-r3"],
    )
    def test_one_cell_per_job_equals_one_job(self, monkeypatch, model, num_groups, symmetry):
        tables = []
        for packing in (
            lambda rounds, graph, workers: [[i] for i in range(len(rounds))],
            lambda rounds, graph, workers: [list(range(len(rounds)))],
        ):
            monkeypatch.setattr(payoff, "pack_cells", packing)
            with Executor("serial") as ex:
                tables.append(_flatten(_table(ex, model, num_groups, symmetry)))
        assert tables[0] == tables[1]

    def test_backends_and_worker_counts_agree(self):
        with Executor("serial") as ex:
            serial = _flatten(_table(ex))
        for workers in (1, 2, 3):
            with Executor("process", workers=workers) as ex:
                assert _flatten(_table(ex)) == serial, workers

    def test_cells_ignore_the_job_stream(self):
        cells = (
            ProfileCell(seed_sets=((0, 1), (1, 2)), rounds=6, seed=11),
            ProfileCell(seed_sets=((3,), (4, 5)), rounds=4, seed=12),
        )
        job = CompetitiveJob(graph=GRAPH, model=IndependentCascade(0.2), cells=cells)
        packed = job.run(as_rng(1))
        assert packed == job.run(as_rng(2))
        alone = [
            CompetitiveJob(graph=GRAPH, model=IndependentCascade(0.2), cells=(c,)).run(
                as_rng(3)
            )
            for c in cells
        ]
        assert packed == alone[0] + alone[1]


class TestPackCells:
    def test_packs_are_consecutive_and_cover_every_cell(self):
        rounds = [20, 5, 9, 9, 40, 1, 7]
        packs = pack_cells(rounds, GRAPH, 3)
        assert [i for pack in packs for i in pack] == list(range(len(rounds)))

    def test_one_worker_fits_small_tables_in_one_job(self):
        # 270 rounds x 80 nodes fit the 35,904-bit budget of GRAPH.
        assert pack_cells([10] * 27, GRAPH, 1) == [list(range(27))]

    def test_cells_spread_over_the_workers(self):
        assert [len(pack) for pack in pack_cells([10] * 27, GRAPH, 2)] == [14, 13]
        assert [len(pack) for pack in pack_cells([40] * 4, GRAPH, 2)] == [2, 2]

    def test_budget_caps_a_job(self):
        cap = _csr_bits(GRAPH) // GRAPH.num_nodes
        assert [len(pack) for pack in pack_cells([cap // 2] * 5, GRAPH, 1)] == [2, 2, 1]

    def test_cell_over_the_budget_runs_alone(self):
        huge = _csr_bits(GRAPH) // GRAPH.num_nodes + 1
        assert pack_cells([1, huge, 1], GRAPH, 1) == [[0], [1], [2]]

    def test_no_job_bitset_exceeds_the_out_csr_bytes(self, monkeypatch):
        # A sparse graph: 60 rounds x 3000 nodes is 180k bits per cell
        # against a 480k-bit budget, so the budget, not the worker count,
        # decides the packing.
        graph = erdos_renyi(3000, 3000, rng=1)
        submitted: list[CompetitiveJob] = []
        real = Executor.run

        def spy(self, jobs, rng=None):
            submitted.extend(jobs)
            return real(self, jobs, rng=rng)

        monkeypatch.setattr(Executor, "run", spy)
        with Executor("serial") as ex:
            _table(ex, graph=graph, rounds=120)
        budget = _csr_bits(graph)
        assert len(submitted) > 1
        for job in submitted:
            bits = sum(cell.rounds for cell in job.cells) * graph.num_nodes
            assert bits <= budget or len(job.cells) == 1


class TestPerCellTelemetry:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        metrics.reset()
        yield
        metrics.reset()

    def test_job_seconds_split_over_cells_by_rounds(self, monkeypatch, tmp_path):
        # Reduce mode gives the cells unequal rounds (5, 9, 5 per draw).
        monkeypatch.setattr(
            payoff, "pack_cells", lambda rounds, graph, workers: [list(range(len(rounds)))]
        )
        path = tmp_path / "run.jsonl"
        with Executor("serial") as ex, RunJournal(path) as journal, attached(journal):
            _table(ex, symmetry="reduce")
        done = {
            tuple(e["profile"]): e["duration_seconds"]
            for e in read_journal(path)
            if e["event"] == "profile_done"
        }
        assert done[(0, 1)] / done[(0, 0)] == pytest.approx(9 / 5)
        assert done[(1, 1)] == pytest.approx(done[(0, 0)])
        snap = metrics.snapshot()["histograms"]
        job_seconds = snap["exec.job_seconds"]
        assert job_seconds["count"] == 1
        assert sum(done.values()) == pytest.approx(job_seconds["total"])

    def test_simulation_count_is_rounds_times_cells(self):
        with Executor("serial") as ex:
            _table(ex)
        counters = metrics.snapshot()["counters"]
        # 4 profiles x 9 rounds, split over 2 draws.
        assert counters["cascade.simulations"] == 36
        assert np.isclose(counters["payoff.profiles_estimated"], 4)
