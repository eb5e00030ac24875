"""Phase 1's pooled selections as executor jobs (:class:`SelectionJob`).

A pooled MixGreedy selection takes one integer from the
caller's generator (the pool token) and is otherwise a function of
(graph, model, count, token, k).  Phase 1 keeps the caller's order of
generator draws and memo lookups and submits the pooled selections the
memo misses as one batch of per-(draw, group) jobs.  These tests pin that
the seeds, the caller's generator and the payoff tensor do not depend on
the backend or on the memo, and match the one-selection-at-a-time loop
the batch replaced (the pinned digest).
"""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro import get_real
from repro.algorithms.base import SelectionJob, select_with_pools
from repro.algorithms.degree_discount import DegreeDiscount
from repro.algorithms.greedy import MixGreedy
from repro.algorithms.heuristics import RandomSeeds
from repro.cache import clear_caches, selection_memo
from repro.cascade.ic import IndependentCascade
from repro.cascade.pools import SnapshotPool
from repro.core.payoff import estimate_payoff_table
from repro.core.strategy import StrategySpace
from repro.exec import Executor
from repro.exec import executor as executor_mod
from repro.graphs.datasets import hep
from repro.obs.metrics import counter

R, K, ROUNDS, DRAWS, SEED = 3, 5, 6, 2, 25

#: sha256 over the Phase-1 seed sets, the generator state after Phase 1,
#: the generator state after the payoff table and the payoff tensor, as
#: the selection-at-a-time loop (``selector.select(..., pool=pool)`` per
#: strategy) computed them before Phase 1 became a batch.
PINNED_DIGEST = "3aef0cd2dee4a41797ab7cd38d84f0fc4c179e0e7c15e3ce310858728962c150"


def _second_mixgreedy(model, num_snapshots):
    """Another MixGreedy on the same group pool, under its own strategy name."""
    selector = MixGreedy(model, num_snapshots)
    selector.name += "2"
    return selector


@pytest.fixture(scope="module")
def graph():
    return hep(scale=0.02)


@pytest.fixture(scope="module")
def space():
    model = IndependentCascade(0.05)
    # The pools' token draws fall between the heuristics' draws.
    return StrategySpace(
        [DegreeDiscount(0.05), MixGreedy(model, 8), _second_mixgreedy(model, 8), RandomSeeds()]
    )


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_caches()
    yield
    clear_caches()


def _pools(graph):
    return [SnapshotPool(graph) for _ in range(DRAWS * R)]


def _phase1(graph, space, executor):
    generator = np.random.default_rng(SEED)
    seeds = select_with_pools(graph, K, space.selectors, _pools(graph), generator, executor)
    return seeds, generator.bit_generator.state


def _one_by_one(graph, space):
    generator = np.random.default_rng(SEED)
    seeds = [
        [selector.select(graph, K, generator, pool=pool) for selector in space]
        for pool in _pools(graph)
    ]
    return seeds, generator.bit_generator.state


def _table(graph, space, executor):
    generator = np.random.default_rng(SEED)
    table = estimate_payoff_table(
        graph,
        space[1].model,
        space,
        num_groups=R,
        k=K,
        rounds=ROUNDS,
        seed_draws=DRAWS,
        rng=generator,
        executor=executor,
        symmetry="full",
    )
    return table.to_game().payoffs, generator.bit_generator.state


def _digest(seeds, phase1_state, end_state, tensor):
    nested = [seeds[d * R : (d + 1) * R] for d in range(DRAWS)]
    h = hashlib.sha256()
    h.update(json.dumps(nested).encode())
    h.update(json.dumps(phase1_state, sort_keys=True).encode())
    h.update(json.dumps(end_state, sort_keys=True).encode())
    h.update(np.ascontiguousarray(tensor).tobytes())
    return h.hexdigest()


class TestPhaseOneBitIdentity:
    @pytest.fixture(scope="class")
    def serial_run(self, graph, space):
        clear_caches()
        with Executor("serial") as executor:
            seeds, state = _phase1(graph, space, executor)
            clear_caches()
            tensor, end_state = _table(graph, space, executor)
        clear_caches()
        return seeds, state, tensor, end_state

    def test_matches_the_pinned_one_by_one_digest(self, serial_run):
        seeds, state, tensor, end_state = serial_run
        assert _digest(seeds, state, end_state, tensor) == PINNED_DIGEST

    def test_batch_equals_inline_selections(self, graph, space, serial_run):
        seeds, state, _, _ = serial_run
        assert _one_by_one(graph, space) == (seeds, state)

    def test_every_backend_gives_the_same_phase_one_and_table(
        self, graph, space, serial_run
    ):
        seeds, state, tensor, end_state = serial_run
        with Executor("process", 2) as executor:
            assert _phase1(graph, space, executor) == (seeds, state)
            clear_caches()
            got_tensor, got_end = _table(graph, space, executor)
        np.testing.assert_array_equal(got_tensor, tensor)
        assert got_end == end_state

    def test_warm_memo_equals_cold_and_submits_no_selection_batch(
        self, graph, space, serial_run
    ):
        seeds, state, tensor, end_state = serial_run
        batches = counter("exec.batches")
        with Executor("serial") as executor:
            assert _phase1(graph, space, executor) == (seeds, state)  # cold
            before = batches.value
            assert _phase1(graph, space, executor) == (seeds, state)  # warm
            assert batches.value == before
            got_tensor, got_end = _table(graph, space, executor)  # warm phase 1
        np.testing.assert_array_equal(got_tensor, tensor)
        assert got_end == end_state


class _Exploding(MixGreedy):
    """A MixGreedy whose pooled selection fails inside its job."""

    def _select_pooled(self, graph, k, pool):
        raise RuntimeError("selection job failed")


class TestFailureAndNesting:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_failing_job_fails_get_real_and_memoizes_nothing(self, karate, backend):
        model = IndependentCascade(0.1)
        strategies = [_Exploding(model, 6), _second_mixgreedy(model, 6)]
        with Executor(backend, 2) as executor, pytest.raises(RuntimeError, match="job failed"):
            get_real(karate, model, strategies, k=3, rounds=2, rng=1, executor=executor)
        assert len(selection_memo()) == 0

    def test_job_builds_no_executor_under_a_process_default(
        self, karate, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKEND", "process")

        def forbidden():
            raise AssertionError("a selection job resolved the default executor")

        monkeypatch.setattr(executor_mod, "default_executor", forbidden)
        model = IndependentCascade(0.1)
        space = StrategySpace([MixGreedy(model, 6), _second_mixgreedy(model, 6)])
        with Executor("serial") as executor:
            pools = [SnapshotPool(karate) for _ in range(2)]
            generator = np.random.default_rng(4)
            seeds = select_with_pools(karate, 3, space.selectors, pools, generator, executor)
        assert all(len(set(s)) == 3 for row in seeds for s in row)
        # The inline path (select with a pool) is the same job.
        pool = SnapshotPool(karate)
        assert len(MixGreedy(model, 6).select(karate, 3, rng=4, pool=pool)) == 3

    def test_job_pickles_token_and_parameters_without_masks(self, karate):
        model = IndependentCascade(0.1)
        with Executor("process", 2) as executor:
            selector = MixGreedy(model, 6, executor=executor)
            pool = SnapshotPool(karate)
            pool.token(np.random.default_rng(3))
            job = SelectionJob(pool, (selector,), 3)
            (inline,) = job.run(np.random.default_rng(0))  # fills the pool's caches
            clone = pickle.loads(pickle.dumps(job))
        assert clone.pool.token() == pool.token()
        assert not clone.pool._masks and not clone.pool._gains
        # A selector keeps no executor: its one DP runs where it selects.
        assert getattr(selector, "executor", None) is None
        assert getattr(clone.selectors[0], "executor", None) is None
        assert clone.run(np.random.default_rng(1)) == (inline,)


class TestSeedContract:
    def test_batch_contract_checks_selected_seeds(self):
        from repro.contracts import ContractViolation, check_batch
        from repro.exec.jobs import SelectedSeeds

        check_batch([(SelectedSeeds(((0, 4), (3, 1))),)], [5])
        with pytest.raises(ContractViolation, match="invalid seeds"):
            check_batch([(SelectedSeeds(((0, 0),)),)], [5])
        with pytest.raises(ContractViolation, match="invalid seeds"):
            check_batch([(SelectedSeeds(((0, 5),)),)], [5])
