"""Cross-backend telemetry invariance.

The worker metric harvest ships each process-backend job's registry delta
back to the submitting process, so ``metrics.snapshot()`` must report the
same simulation work no matter which backend ran it.  These tests run an
identical workload on the serial and process backends and compare the
work-proportional counters, check that every registry name the benchmark's
per-layer metrics read (``bench/tracer.py::METRICS``) is still produced,
and check that spans opened inside workers journal with correct parentage.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import repro
from repro.cache import clear_caches
from repro.cascade.ic import IndependentCascade
from repro.cascade.simulate import estimate_competitive_spread, estimate_spread
from repro.exec.executor import Executor
from repro.graphs.generators import erdos_renyi
from repro.obs import metrics
from repro.obs.journal import RunJournal, attach_journal, detach_journal
from repro.obs.tracetree import build_traces

#: Counters that must be backend-invariant: they count *work done*, not
#: scheduling details (queue waits and per-backend timings naturally vary).
WORK_COUNTERS = (
    "cascade.simulations",
    "cascade.nodes_activated",
    "exec.batches",
    "exec.jobs_completed",
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics.reset()
    yield
    metrics.reset()


def _run_workload(backend, karate):
    with Executor(backend, workers=2) as executor:
        estimate_spread(
            karate,
            IndependentCascade(0.2),
            [0, 5],
            rounds=6,
            rng=123,
            executor=executor,
        )
        estimate_competitive_spread(
            karate,
            IndependentCascade(0.2),
            [[0], [33]],
            rounds=4,
            rng=7,
            executor=executor,
        )


def _work_profile(backend, karate):
    metrics.reset()
    _run_workload(backend, karate)
    snap = metrics.snapshot()
    counters = {
        name: snap["counters"].get(name, 0) for name in WORK_COUNTERS
    }
    histogram_counts = {
        name: stats["count"]
        for name, stats in snap["histograms"].items()
        if name in ("exec.job_seconds", "exec.queue_wait_seconds")
    }
    return counters, histogram_counts


def _load_bench_metrics():
    """``METRICS`` of ``bench/tracer.py``, which is not an importable package."""
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.METRICS


def _get_real_snapshot(backend, workers):
    """Registry after a cold and then a warm (memo-served) ``get_real``."""
    graph = erdos_renyi(80, 320, rng=3)
    model = IndependentCascade(0.1)
    space = [repro.MixGreedy(model, 8), repro.DegreeDiscount(0.1)]
    clear_caches()  # every backend starts cold, so cache counters compare
    metrics.reset()
    with Executor(backend, workers=workers) as executor:
        for _ in range(2):
            repro.get_real(graph, model, space, k=3, rounds=6, rng=5, executor=executor)
    return metrics.snapshot()


def _moved(snap, name):
    """Whether *name* recorded activity since the last reset."""
    if name in snap["counters"]:
        return snap["counters"][name] > 0
    return name in snap["histograms"] and snap["histograms"][name]["count"] > 0


class TestBackendInvariance:
    def test_serial_process_report_identical_work(self, karate):
        serial = _work_profile("serial", karate)
        process = _work_profile("process", karate)
        assert serial == process
        # Sanity: the workload actually did something.
        counters, histogram_counts = serial
        assert counters["cascade.simulations"] == 10
        assert histogram_counts["exec.job_seconds"] == counters["exec.jobs_completed"] > 0

    def test_bench_registry_names_produced(self):
        needed = sorted(
            {name for _, registry, _ in _load_bench_metrics().values() for name in registry}
        )
        assert needed  # the benchmark reads the registry at all
        snaps = {
            "serial": _get_real_snapshot("serial", 1),
            "process": _get_real_snapshot("process", 2),
        }
        # Every name the benchmark reads is still written by the library
        # (a reset zeroes instruments but keeps their names, so a name
        # only counts as produced if it moved).  Payload bytes are
        # measured only where jobs are pickled.
        for backend, snap in snaps.items():
            silent = [name for name in needed if not _moved(snap, name)]
            expected = ["exec.job_payload_bytes"] if backend == "serial" else []
            assert silent == expected, backend
        serial, process = snaps["serial"], snaps["process"]
        for name in needed:
            if name in serial["counters"] and name != "exec.jobs_completed":
                # Work counters: the harvest makes them backend-invariant.
                assert process["counters"][name] == serial["counters"][name], name
        for backend, snap in snaps.items():
            # The process backend splits work over its workers, so the
            # executor's per-job instruments agree with its own job count.
            counters, hists = snap["counters"], snap["histograms"]
            jobs = counters["exec.jobs_completed"]
            assert hists["exec.job_seconds"]["count"] == jobs, backend
            assert hists["exec.queue_wait_seconds"]["count"] == jobs, backend
            assert hists["exec.batch_seconds"]["count"] == counters["exec.batches"]
            pickled = jobs if backend == "process" else 0
            assert hists["exec.job_payload_bytes"]["count"] == pickled, backend
        # The warm query is served from the selection memo.
        assert serial["counters"]["cache.hits"] > 0


class TestCrossBoundaryTracing:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_job_spans_parent_under_batch_span(self, backend, karate, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        attach_journal(journal)
        try:
            with Executor(backend, workers=2) as executor:
                estimate_spread(
                    karate,
                    IndependentCascade(0.2),
                    [0],
                    rounds=5,
                    rng=1,
                    executor=executor,
                )
            journal.close()
        finally:
            detach_journal(journal)
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        (trace,) = build_traces(events)
        (root,) = trace.roots
        assert root.name == "exec.batch"
        assert not root.orphaned
        job_names = [child.name for child in root.children]
        assert job_names == ["exec.job"]  # one job: rounds ride inside it
        job = root.children[0]
        assert job.record["trace_id"] == root.record["trace_id"]
        assert job.record["parent_id"] == root.record["span_id"]

    def test_journals_identical_shape_across_backends(self, karate, tmp_path):
        shapes = {}
        for backend in ("serial", "process"):
            path = tmp_path / f"{backend}.jsonl"
            journal = RunJournal(path)
            attach_journal(journal)
            try:
                with Executor(backend, workers=2) as executor:
                    estimate_competitive_spread(
                        karate,
                        IndependentCascade(0.2),
                        [[0], [33]],
                        rounds=4,
                        rng=7,
                        executor=executor,
                    )
                journal.close()
            finally:
                detach_journal(journal)
            events = [
                json.loads(line)
                for line in path.read_text().splitlines()
                if line.strip()
            ]
            shapes[backend] = sorted(
                (e["event"], e.get("name", "")) for e in events
            )
        assert shapes["serial"] == shapes["process"]
