"""Kernel equivalence suite (the kernel determinism contract).

The production kernels and the python reference walks of
``tests/reference_kernels.py`` consume randomness in different orders, so
they are **not** bit-identical to each other; the contract
(``docs/execution.md``) is:

* **statistical equivalence** — per-node activation and claim probabilities
  match exactly, so spread estimates from the kernels and the reference
  walks agree within sampling noise (asserted at 3 pooled standard errors,
  with fixed seeds so the check is deterministic);
* **determinism** — for a fixed master seed the kernels are bit-identical
  to themselves across runs, backends, and worker counts (the SeedSequence
  discipline of :mod:`repro.exec`).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms import DegreeDiscount, RandomSeeds
from repro.cascade import competitive
from repro.cascade.competitive import ClaimRule, CompetitiveDiffusion, TieBreakRule
from repro.cascade.ic import IndependentCascade
from repro.cascade.lt import LinearThreshold
from repro.cascade.wc import WeightedCascade
from repro.cascade.simulate import estimate_spread
from repro.config import CONTRACTS_ENV_VAR
from repro.core.payoff import estimate_payoff_table
from repro.core.strategy import StrategySpace
from repro.exec import Executor
from repro.exec.jobs import CompetitiveJob, ProfileCell
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi, karate_like_fixture
from repro import contracts
from repro.contracts import ContractViolation
from repro.obs import metrics
from repro.utils.rng import as_rng
from tests import reference_kernels

GRAPHS: dict[str, tuple[DiGraph, list[int]]] = {
    "karate": (karate_like_fixture(), [0, 33]),
    "random": (erdos_renyi(60, 240, rng=7), [0, 7]),
}

MODELS = {
    "ic": IndependentCascade(0.1),
    "wc": WeightedCascade(),
    "lt": LinearThreshold(),
}


def _assert_within_pooled_stderr(a: np.ndarray, b: np.ndarray) -> None:
    """Means of two sample sets agree within 3 pooled standard errors."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    stderr_a = a.std(ddof=1) / math.sqrt(a.size)
    stderr_b = b.std(ddof=1) / math.sqrt(b.size)
    pooled = math.sqrt(stderr_a**2 + stderr_b**2)
    assert abs(a.mean() - b.mean()) <= 3 * pooled + 1e-9, (
        f"means {a.mean():.3f} vs {b.mean():.3f} differ by more than "
        f"3 pooled stderr ({pooled:.3f})"
    )


def _reference_spreads(
    graph: DiGraph,
    model: object,
    profile: list[list[int]],
    rounds: int,
    rng: np.random.Generator,
    claim_rule: ClaimRule = ClaimRule.PROPORTIONAL,
) -> np.ndarray:
    """``(rounds, r)`` spreads from the python reference walks."""
    rows = []
    for _ in range(rounds):
        initiators = reference_kernels.assign_initiators(
            graph.num_nodes, profile, TieBreakRule.UNIFORM, rng
        )
        if isinstance(model, LinearThreshold):
            owner, _, _ = reference_kernels.competitive_threshold(
                graph, initiators, claim_rule, rng
            )
        else:
            owner, _, _ = reference_kernels.competitive_cascade(
                graph, model.edge_probabilities(graph), initiators, claim_rule, rng
            )
        rows.append(np.bincount(owner[owner >= 0], minlength=len(profile)))
    return np.array(rows)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("model_name", sorted(MODELS))
class TestSingleGroupEquivalence:
    """The one-group competitive run against the classical reference walks."""

    def test_spread_means_agree(self, graph_name, model_name):
        graph, seeds = GRAPHS[graph_name]
        model = MODELS[model_name]
        rng = as_rng(2015)
        if isinstance(model, LinearThreshold):
            reference = [
                reference_kernels.simulate_threshold(graph, seeds, rng).sum()
                for _ in range(300)
            ]
        else:
            probs = model.edge_probabilities(graph)
            reference = [
                reference_kernels.simulate_cascade(graph, probs, seeds, rng).sum()
                for _ in range(300)
            ]
        engine, rng = CompetitiveDiffusion(graph, model), as_rng(2015)
        kernel = [engine.run([seeds], rng).spread(0) for _ in range(300)]
        _assert_within_pooled_stderr(reference, kernel)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("model_name", sorted(MODELS))
class TestCompetitiveEquivalence:
    def test_group_spread_means_agree(self, graph_name, model_name):
        graph, seeds = GRAPHS[graph_name]
        profile = [seeds[:1], seeds[1:]]
        model = MODELS[model_name]
        reference = _reference_spreads(graph, model, profile, 300, as_rng(7))
        batched = CompetitiveDiffusion(graph, model).spreads(profile, 300, as_rng(7))
        for group in range(2):
            _assert_within_pooled_stderr(reference[:, group], batched[:, group])


@pytest.mark.parametrize("claim_rule", list(ClaimRule), ids=lambda c: c.value)
@pytest.mark.parametrize("model_name", ["ic", "wc"])
class TestBatchedKernelEquivalence:
    """The batched sweep against the per-simulation python reference."""

    GRAPH = erdos_renyi(80, 400, rng=11)

    def test_three_groups(self, model_name, claim_rule):
        profile = [[0, 1], [2, 3], [4]]
        model = MODELS[model_name]
        engine = CompetitiveDiffusion(self.GRAPH, model, claim_rule=claim_rule)
        batched = engine.spreads(profile, 400, as_rng(21))
        reference = _reference_spreads(
            self.GRAPH, model, profile, 400, as_rng(21), claim_rule
        )
        for group in range(3):
            _assert_within_pooled_stderr(reference[:, group], batched[:, group])

    def test_contested_seeds(self, model_name, claim_rule):
        # Seeds 0 and 1 are selected by both groups: every round re-resolves
        # who initiates them before the batched sweep runs.
        profile = [[0, 1, 5], [0, 1, 9]]
        model = MODELS[model_name]
        engine = CompetitiveDiffusion(self.GRAPH, model, claim_rule=claim_rule)
        batched = engine.spreads(profile, 400, as_rng(22))
        reference = _reference_spreads(
            self.GRAPH, model, profile, 400, as_rng(22), claim_rule
        )
        for group in range(2):
            _assert_within_pooled_stderr(reference[:, group], batched[:, group])


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_spread_job_agrees_with_reference(graph_name, model_name):
    # The one-cell, one-group job estimate_spread submits: IC/WC run its
    # rounds as one sweep, LT one simulation per round.
    graph, seeds = GRAPHS[graph_name]
    model = MODELS[model_name]
    rng = as_rng(2016)
    if isinstance(model, LinearThreshold):
        reference = [
            reference_kernels.simulate_threshold(graph, seeds, rng).sum() for _ in range(300)
        ]
    else:
        probs = model.edge_probabilities(graph)
        reference = [
            reference_kernels.simulate_cascade(graph, probs, seeds, rng).sum()
            for _ in range(300)
        ]
    job = CompetitiveJob(
        graph=graph, model=model, cells=(ProfileCell(seed_sets=(tuple(seeds),), rounds=300),)
    )
    (estimate,) = job.run(as_rng(2017))
    stderr = np.std(reference, ddof=1) / math.sqrt(300)
    assert abs(estimate.mean - np.mean(reference)) <= 3 * math.hypot(stderr, estimate.stderr)


@pytest.mark.parametrize("claim_rule", list(ClaimRule), ids=lambda c: c.value)
@pytest.mark.parametrize("model_name", ["ic", "wc"])
class TestPackedSweepEquivalence:
    """Several cells in one sweep, each against the per-simulation reference."""

    GRAPH = erdos_renyi(80, 400, rng=11)
    PROFILES = ([[0, 1], [2, 3]], [[0, 1, 5], [0, 1, 9]], [[4], [4, 7]])
    ROUNDS = (300, 200, 250)

    def _streams(self, engine, seed):
        return [
            (engine.incidence(profile), rounds, as_rng(seed + i))
            for i, (profile, rounds) in enumerate(zip(self.PROFILES, self.ROUNDS))
        ]

    def test_each_cell_matches_reference(self, model_name, claim_rule):
        model = MODELS[model_name]
        engine = CompetitiveDiffusion(self.GRAPH, model, claim_rule=claim_rule)
        packed = engine.sweep(self._streams(engine, 30))
        start = 0
        for i, (profile, rounds) in enumerate(zip(self.PROFILES, self.ROUNDS)):
            block = packed[start : start + rounds]
            start += rounds
            reference = _reference_spreads(
                self.GRAPH, model, profile, rounds, as_rng(40 + i), claim_rule
            )
            for group in range(2):
                _assert_within_pooled_stderr(reference[:, group], block[:, group])

    def test_cells_are_independent_of_packing(self, model_name, claim_rule):
        model = MODELS[model_name]
        engine = CompetitiveDiffusion(self.GRAPH, model, claim_rule=claim_rule)
        packed = engine.sweep(self._streams(engine, 30))
        alone = np.concatenate(
            [engine.sweep([stream]) for stream in self._streams(engine, 30)]
        )
        np.testing.assert_array_equal(packed, alone)


class TestNumpyKernelDeterminism:
    """The kernels must be bit-identical to themselves for a fixed seed."""

    def _table(self, executor):
        return estimate_payoff_table(
            erdos_renyi(50, 200, rng=3),
            IndependentCascade(0.2),
            StrategySpace([DegreeDiscount(0.2), RandomSeeds()]),
            num_groups=2,
            k=4,
            rounds=8,
            seed_draws=2,
            rng=2015,
            executor=executor,
        )

    def _flatten(self, table):
        return {
            profile: [(e.mean, e.std, e.samples) for e in ests]
            for profile, ests in table.estimates.items()
        }

    def test_repeat_runs_identical(self):
        with Executor("serial") as ex:
            first = self._flatten(self._table(ex))
            second = self._flatten(self._table(ex))
        assert first == second

    def test_serial_vs_process(self):
        serial = self._flatten(self._table(Executor("serial")))
        with Executor("process", workers=2) as ex:
            process = self._flatten(self._table(ex))
        assert serial == process

    def test_worker_count_is_irrelevant(self):
        with Executor("process", workers=1) as ex:
            one = self._flatten(self._table(ex))
        with Executor("process", workers=4) as ex:
            four = self._flatten(self._table(ex))
        assert one == four

    def test_engine_level_repeatability(self):
        graph = erdos_renyi(80, 400, rng=5)
        engine = CompetitiveDiffusion(graph, WeightedCascade())
        a = engine.run([[0, 1], [2, 3]], rng=99)
        b = engine.run([[0, 1], [2, 3]], rng=99)
        np.testing.assert_array_equal(a.owner, b.owner)
        np.testing.assert_array_equal(a.activation_round, b.activation_round)
        assert a.rounds == b.rounds
        np.testing.assert_array_equal(
            engine.spreads([[0, 1], [2, 3]], 12, rng=99),
            engine.spreads([[0, 1], [2, 3]], 12, rng=99),
        )


@pytest.mark.parametrize("crn_base", [None, 12345], ids=["spawned", "crn"])
class TestCompetitiveJobBackends:
    """``CompetitiveJob`` results are bit-identical on every backend."""

    GRAPH = erdos_renyi(70, 300, rng=9)

    def _jobs(self, crn_base):
        return [
            CompetitiveJob(
                graph=self.GRAPH,
                model=model,
                cells=(ProfileCell(seed_sets=((0, 1, 2), (2, 3, 4)), rounds=9),),
                crn_base=crn_base,
            )
            for model in (IndependentCascade(0.15), WeightedCascade(), LinearThreshold())
        ]

    def _results(self, backend, workers, crn_base):
        with Executor(backend, workers=workers) as ex:
            return [
                [(e.mean, e.std, e.samples) for e in ests]
                for ests in ex.estimates(self._jobs(crn_base), rng=77)
            ]

    def test_serial_process_identical(self, crn_base):
        serial = self._results("serial", 1, crn_base)
        assert self._results("process", 2, crn_base) == serial


def test_crn_rounds_replay_their_streams():
    # Under CRN, round i depends only on its own stream, so the job's
    # estimate does not depend on the executor's spawned generator.
    job = CompetitiveJob(
        graph=erdos_renyi(70, 300, rng=9),
        model=IndependentCascade(0.15),
        cells=(ProfileCell(seed_sets=((0, 1, 2), (2, 3, 4)), rounds=9),),
        crn_base=12345,
    )
    first = job.run(as_rng(1))
    second = job.run(as_rng(2))
    assert [(e.mean, e.std) for e in first] == [(e.mean, e.std) for e in second]


class TestBatchedTelemetry:
    """The simulation counters equal the sums over the per-round outcomes."""

    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        metrics.reset()
        yield
        metrics.reset()

    def test_counters_match_per_round_outcomes(self, monkeypatch):
        monkeypatch.setenv(CONTRACTS_ENV_VAR, "1")  # so the claims are kept
        graph = erdos_renyi(60, 240, rng=4)
        recorded = []
        real = competitive.run_competitive_cascades

        def spy(*args):
            result = real(*args)
            claims = args[-1]
            recorded.append((result, claims))
            return result

        monkeypatch.setattr(competitive, "run_competitive_cascades", spy)
        engine = CompetitiveDiffusion(graph, IndependentCascade(0.2))
        spreads = engine.spreads([[0, 1], [5, 6]], 15, rng=3)
        ((kernel_spreads, steps), claims) = recorded[0]
        np.testing.assert_array_equal(spreads, kernel_spreads)
        # A simulation's step count is its last claiming wave plus the
        # empty final step.
        n = graph.num_nodes
        last = np.zeros(15, dtype=np.int64)
        for wave, (keys, _) in enumerate(claims):
            last[keys // n] = wave
        np.testing.assert_array_equal(steps, last + 1)

        snap = metrics.snapshot()
        assert snap["counters"]["cascade.simulations"] == 15
        assert snap["counters"]["cascade.nodes_activated"] == int(spreads.sum())

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_estimate_spread_counts_each_simulation_once(self, model_name):
        estimate_spread(GRAPHS["karate"][0], MODELS[model_name], [0, 33], rounds=12, rng=5)
        assert metrics.snapshot()["counters"]["cascade.simulations"] == 12


class TestBatchedContracts:
    """With contracts on, every simulation of a batch is checked."""

    def test_checks_run_per_simulation(self, monkeypatch):
        monkeypatch.setenv(CONTRACTS_ENV_VAR, "1")
        calls = {"ownership": 0, "spreads": 0}
        real_ownership, real_spreads = contracts.check_ownership, contracts.check_spreads

        def ownership(owner, initiators, num_groups):
            calls["ownership"] += 1
            real_ownership(owner, initiators, num_groups)

        def spreads(values, num_nodes, name="spreads"):
            calls["spreads"] += 1
            real_spreads(values, num_nodes, name)

        monkeypatch.setattr(contracts, "check_ownership", ownership)
        monkeypatch.setattr(contracts, "check_spreads", spreads)
        engine = CompetitiveDiffusion(erdos_renyi(60, 240, rng=4), IndependentCascade(0.2))
        engine.spreads([[0, 1], [1, 5]], 11, rng=8)
        assert calls == {"ownership": 11, "spreads": 11}

    def test_reclaimed_initiator_is_caught(self, monkeypatch):
        # A sweep that re-claimed an initiator for another group must fail
        # the ownership contract of the simulation it happened in.
        monkeypatch.setenv(CONTRACTS_ENV_VAR, "1")
        real = competitive.run_competitive_cascades

        def corrupt(*args):
            result = real(*args)
            claims = args[-1]
            keys, groups = claims[0]
            claims.append((keys[-1:], 1 - groups[-1:]))
            return result

        monkeypatch.setattr(competitive, "run_competitive_cascades", corrupt)
        engine = CompetitiveDiffusion(erdos_renyi(60, 240, rng=4), IndependentCascade(0.2))
        with pytest.raises(ContractViolation, match="switched groups"):
            engine.spreads([[0, 1], [5, 6]], 4, rng=8)
