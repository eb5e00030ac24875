"""Unit tests for the execution engine: jobs, backends, executor, env plumbing."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.algorithms.base import SelectionJob
from repro.algorithms.greedy import MixGreedy
from repro.cascade.estimate import SpreadEstimate
from repro.cascade.ic import IndependentCascade
from repro.cascade.pools import SnapshotPool
from repro.errors import ConfigError, ExecutionError
from repro.exec import (
    BACKENDS,
    CompetitiveJob,
    Executor,
    ProcessBackend,
    ProfileCell,
    SerialBackend,
    SimulationJob,
    build_executor,
    default_executor,
    make_backend,
    reset_default_executor,
    resolve_executor,
)
from repro.obs.journal import (
    RunJournal,
    attach_journal,
    detach_journal,
    read_journal,
)
from repro.obs.metrics import counter
from repro.utils.rng import as_rng, spawn_seed_sequences


def _cells(seeds, rounds):
    """One cell of one group: the single-group spread σ0(seeds)."""
    return (ProfileCell(seed_sets=(tuple(seeds),), rounds=rounds),)


class CountingSpreadJob(CompetitiveJob):
    """A spread job that counts how often it is pickled (in this process)."""

    pickles = 0

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__


@pytest.fixture
def model():
    return IndependentCascade(0.2)


def _spread_job(graph, model):
    return CompetitiveJob(graph=graph, model=model, cells=_cells((0, 1), 6))


def _competitive_job(graph, model):
    cells = (
        ProfileCell(seed_sets=((0, 1), (2, 3)), rounds=4),
        ProfileCell(seed_sets=((4,), (0, 5)), rounds=3, seed=11),
    )
    return CompetitiveJob(graph=graph, model=model, cells=cells)


def _selection_job(graph, model):
    pool = SnapshotPool(graph)
    pool.token(as_rng(3))
    return SelectionJob(pool, (MixGreedy(model, 6),), 3)


#: One factory per job class the executor ships to workers.
JOB_FACTORIES = [
    pytest.param(_spread_job, id="one-group-CompetitiveJob"),
    pytest.param(_competitive_job, id="CompetitiveJob"),
    pytest.param(_selection_job, id="SelectionJob"),
]


@pytest.fixture
def jobs(random_graph, model):
    return [
        CompetitiveJob(graph=random_graph, model=model, cells=_cells((v,), 6))
        for v in range(5)
    ]


@pytest.fixture(autouse=True)
def _fresh_default_executor():
    reset_default_executor()
    yield
    reset_default_executor()


class TestSpawnSeedSequences:
    def test_one_entropy_draw_per_batch(self):
        a = as_rng(5)
        b = as_rng(5)
        spawn_seed_sequences(a, 10)
        b.integers(0, 2**63 - 1)
        # Both generators advanced by exactly one draw.
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_children_deterministic_and_distinct(self):
        first = spawn_seed_sequences(as_rng(9), 4)
        second = spawn_seed_sequences(as_rng(9), 4)
        states_a = [tuple(s.generate_state(4)) for s in first]
        states_b = [tuple(s.generate_state(4)) for s in second]
        assert states_a == states_b
        assert len(set(states_a)) == 4


class TestJobs:
    def test_spread_job_protocol_and_bounds(self, random_graph, model):
        job = CompetitiveJob(graph=random_graph, model=model, cells=_cells((0, 1), 8))
        assert isinstance(job, SimulationJob)
        assert job.num_nodes == random_graph.num_nodes
        (est,) = job.run(as_rng(3))
        assert est.samples == 8
        assert 2 <= est.mean <= random_graph.num_nodes

    def test_competitive_job_returns_one_estimate_per_group(
        self, random_graph, model
    ):
        job = CompetitiveJob(
            graph=random_graph,
            model=model,
            cells=(ProfileCell(seed_sets=((0,), (1,), (2,)), rounds=5),),
        )
        ests = job.run(as_rng(3))
        assert len(ests) == 3
        assert all(e.samples == 5 for e in ests)

    def test_competitive_job_crn_ignores_generator(self, random_graph, model):
        job = CompetitiveJob(
            graph=random_graph,
            model=model,
            cells=(ProfileCell(seed_sets=((0, 1), (2, 3)), rounds=4),),
            crn_base=123456,
        )
        assert job.run(as_rng(1)) == job.run(as_rng(999))

    @pytest.mark.parametrize("make_job", JOB_FACTORIES)
    def test_job_round_trips_through_pickle(self, random_graph, model, make_job):
        job = make_job(random_graph, model)
        clone = pickle.loads(pickle.dumps(job))
        assert type(clone) is type(job)
        assert clone.run(as_rng(5)) == job.run(as_rng(5))


class TestBackends:
    def test_registry_and_factory(self):
        assert set(BACKENDS) == {"serial", "process"}
        assert isinstance(make_backend("serial", None), SerialBackend)
        assert isinstance(make_backend("process", 2), ProcessBackend)

    def test_unknown_backend_raises(self):
        for name in ("gpu", "thread"):
            with pytest.raises(ExecutionError, match="unknown execution backend"):
                make_backend(name, None)

    def test_invalid_worker_count_raises(self):
        with pytest.raises(ExecutionError):
            ProcessBackend(workers=0)

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_map_unordered_covers_all_jobs(self, name, jobs):
        with Executor(name, workers=2) as ex:
            outcomes = ex.run(jobs, rng=17)
        assert [o.index for o in outcomes] == list(range(len(jobs)))
        for outcome in outcomes:
            assert outcome.queue_wait_seconds >= 0.0
            assert outcome.job_seconds >= 0.0


class TestExecutor:
    def test_process_jobs_pickled_once(self, random_graph, model):
        from repro.obs.metrics import histogram

        jobs = [
            CountingSpreadJob(graph=random_graph, model=model, cells=_cells((v,), 3))
            for v in range(3)
        ]
        sizes = histogram("exec.job_payload_bytes")
        observed = sizes.count
        CountingSpreadJob.pickles = 0
        with Executor("process", workers=2) as ex:
            outcomes = ex.run(jobs, rng=4)
        assert CountingSpreadJob.pickles == len(jobs)
        assert sizes.count == observed + len(jobs)
        assert outcomes[0].estimates == Executor("serial").run(jobs, rng=4)[0].estimates

    def test_empty_batch(self):
        assert Executor("serial").run([], rng=1) == []

    def test_estimates_convenience(self, jobs):
        ests = Executor("serial").estimates(jobs, rng=5)
        assert len(ests) == len(jobs)
        assert all(isinstance(e[0], SpreadEstimate) for e in ests)

    def test_repr_and_properties(self):
        ex = Executor("process", workers=3)
        assert ex.backend_name == "process"
        assert ex.workers == 3
        assert "process" in repr(ex)
        ex.close()
        assert Executor("serial").workers == 1

    def test_close_releases_exit_tracking(self):
        from repro.exec import executor as executor_module

        ex = Executor("serial")
        # Unclosed executors are strongly tracked so interpreter-exit
        # cleanup can shut their pools down synchronously; close() must
        # release that reference.
        assert ex in executor_module._LIVE_EXECUTORS
        ex.close()
        assert ex not in executor_module._LIVE_EXECUTORS

    def test_accepts_backend_instance(self, jobs):
        ex = Executor(SerialBackend())
        assert ex.backend_name == "serial"
        assert len(ex.run(jobs, rng=2)) == len(jobs)

    def test_metrics_incremented(self, jobs):
        completed = counter("exec.jobs_completed").value
        batches = counter("exec.batches").value
        Executor("serial").run(jobs, rng=1)
        assert counter("exec.jobs_completed").value == completed + len(jobs)
        assert counter("exec.batches").value == batches + 1

    def test_journal_batch_events(self, tmp_path, jobs):
        journal = RunJournal(tmp_path / "exec.jsonl")
        attach_journal(journal)
        try:
            Executor("serial").run(jobs, rng=1)
        finally:
            detach_journal(journal)
            journal.close()
        events = read_journal(tmp_path / "exec.jsonl")
        types = [e["event"] for e in events]
        assert types.count("batch_start") == 1
        assert types.count("batch_done") == 1
        done = [e for e in events if e["event"] == "batch_done"][0]
        assert done["jobs"] == len(jobs)
        assert done["backend"] == "serial"
        assert done["workers"] == 1
        assert done["duration_seconds"] >= 0.0

    def test_contracts_reject_garbage_results(self, random_graph, monkeypatch):
        class LyingJob:
            num_nodes = random_graph.num_nodes

            def run(self, generator):
                return (
                    SpreadEstimate(
                        mean=float(random_graph.num_nodes + 10),
                        std=0.0,
                        samples=1,
                    ),
                )

        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        from repro.contracts import ContractViolation

        with pytest.raises(ContractViolation):
            Executor("serial").run([LyingJob()], rng=1)

    @pytest.mark.parametrize(
        "corrupt", ["nan", "negative", "above_bound"], ids=str
    )
    def test_contracts_reject_garbage_estimates(
        self, random_graph, model, monkeypatch, corrupt
    ):
        from repro.contracts import ContractViolation

        job = CompetitiveJob(graph=random_graph, model=model, cells=_cells((0, 1), 4))
        garbage = {"nan": np.nan, "negative": -1.0, "above_bound": random_graph.num_nodes + 1}

        class CorruptSpreadJob(CompetitiveJob):
            def run(self, generator):
                (estimate,) = super().run(generator)
                return (SpreadEstimate(garbage[corrupt], estimate.std, estimate.samples),)

        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        Executor("serial").run([job], rng=1)  # the honest job passes
        with pytest.raises(ContractViolation, match="job 0"):
            Executor("serial").run(
                [CorruptSpreadJob(graph=random_graph, model=model, cells=_cells((0, 1), 4))],
                rng=1,
            )


class TestEnvPlumbing:
    def test_build_executor_defaults_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert build_executor().backend_name == "serial"

    def test_build_executor_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        ex = build_executor()
        assert ex.backend_name == "process"
        assert ex.workers == 2
        ex.close()

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        ex = build_executor("serial")
        assert ex.backend_name == "serial"

    def test_unknown_env_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        with pytest.raises(ExecutionError):
            build_executor()

    def test_bad_env_workers_raises(self, monkeypatch):
        for raw in ("0", "-2", "abc"):
            monkeypatch.setenv("REPRO_WORKERS", raw)
            with pytest.raises(ConfigError, match="REPRO_WORKERS"):
                build_executor("process")
            with pytest.raises(ConfigError, match="REPRO_WORKERS"):
                default_executor()

    def test_default_executor_follows_env_changes(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        first = default_executor()
        assert first.backend_name == "serial"
        assert default_executor() is first
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        second = default_executor()
        assert second is not first
        assert second.backend_name == "process"
        assert second.workers == 2

    def test_resolve_executor(self):
        ex = Executor("serial")
        assert resolve_executor(ex) is ex
        assert resolve_executor(None) is default_executor()

