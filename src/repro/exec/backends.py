"""Execution backends: serial and process-pool job runners.

A backend's only contract is :meth:`SimulationBackend.map_unordered`: apply
the worker function to every payload and yield ``(index, estimates,
queue_wait_seconds, job_seconds)`` records **in any order**.  The
:class:`~repro.exec.executor.Executor` reassembles results by index, and
per-job randomness is fixed up front by the spawned seed sequences, so
completion order never affects results.

Backend choice is a pure performance trade-off (see ``docs/execution.md``):

* :class:`SerialBackend` — zero overhead; the default and the baseline.
* :class:`ProcessBackend` — true multi-core scaling at the cost of
  pickling each job (graph included) to the worker; wins whenever per-job
  simulation time dominates serialization, which the Table-4 payoff
  workload comfortably does.

The process pool is created lazily and reused across batches; call
:meth:`SimulationBackend.close` (or close the owning executor) to release
its worker processes.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from collections.abc import Iterator, Sequence

import numpy as np

from typing import Any

from repro.errors import ExecutionError
from repro.exec.jobs import JobResult, SimulationJob
from repro.obs.metrics import MetricsState, delta_state, get_registry
from repro.obs.trace import collect_spans, span, trace_scope
from repro.utils.rng import as_rng

#: (index, job or its pickle, per-job seed sequence, batch submission
#:  time, serialized trace context or None, harvest-worker-metrics flag).
JobPayload = tuple[
    int,
    SimulationJob[JobResult] | bytes,
    np.random.SeedSequence,
    float,
    dict[str, str] | None,
    bool,
]

#: (index, estimates, queue-wait seconds, job-duration seconds,
#:  worker metrics delta or None, journal-worthy span records).
JobRecord = tuple[
    int,
    tuple[JobResult, ...],
    float,
    float,
    MetricsState | None,
    tuple[dict[str, Any], ...],
]


def execute_job(payload: JobPayload) -> JobRecord:
    """Run one job with its dedicated RNG stream (the worker entry point).

    Module-level so the process backend can pickle a reference to it; the
    timing fields use :func:`time.monotonic`, which is system-wide on the
    platforms we support, so queue waits measured across fork boundaries
    stay meaningful.

    Telemetry crosses the exec boundary in both directions: the payload's
    trace context re-anchors spans opened here under the submitting batch
    span (:func:`repro.obs.trace.trace_scope`), and — when the payload asks
    for a harvest (process backend) — the worker-local metric activity of
    the job is snapshotted as a delta and shipped back in the record for
    the executor to merge, so ``metrics.snapshot()`` is backend-invariant.
    Journal-worthy spans are collected rather than emitted (workers have no
    journal attached) and replayed into the parent-side journal.  A job
    sent to a process arrives as the bytes the executor pickled it to.
    """
    index, shipped, seed_seq, submitted, trace_ctx, harvest = payload
    job: SimulationJob[JobResult] = (
        pickle.loads(shipped) if isinstance(shipped, bytes) else shipped
    )
    registry = get_registry()
    before = registry.snapshot() if harvest else None
    started = time.monotonic()
    with trace_scope(trace_ctx), collect_spans() as records:
        with span("exec.job", journal=True, index=index):
            estimates = job.run(as_rng(seed_seq))
    finished = time.monotonic()
    delta = delta_state(before, registry.snapshot()) if before is not None else None
    return (
        index,
        estimates,
        max(0.0, started - submitted),
        finished - started,
        delta,
        tuple(records),
    )


class SimulationBackend:
    """Strategy interface for running a batch of independent jobs."""

    #: short identifier used in metrics, journal events, and CLI flags
    name: str = "abstract"

    #: whether jobs run in the submitting process and therefore increment
    #: the parent metrics registry directly; when False (process backend)
    #: the executor asks workers for metric deltas and merges them instead
    shares_registry: bool = True

    def map_unordered(
        self, payloads: Sequence[JobPayload]
    ) -> Iterator[JobRecord]:
        """Yield one :data:`JobRecord` per payload, in any order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled workers (idempotent)."""

    def __enter__(self) -> "SimulationBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialBackend(SimulationBackend):
    """Run jobs one after another in the calling thread."""

    name = "serial"

    def map_unordered(
        self, payloads: Sequence[JobPayload]
    ) -> Iterator[JobRecord]:
        for payload in payloads:
            yield execute_job(payload)


class ProcessBackend(SimulationBackend):
    """Run jobs on a shared :class:`ProcessPoolExecutor`.

    Jobs and results cross the process boundary by pickling, so job types
    must be module-level classes and should keep their payloads lean (the
    graph's arrays dominate; at experiment scale that is well under the
    per-job simulation cost).
    """

    name = "process"
    shares_registry = False

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers}")
        self.workers = workers or os.cpu_count() or 1
        self._pool: ProcessPoolExecutor | None = None

    def map_unordered(
        self, payloads: Sequence[JobPayload]
    ) -> Iterator[JobRecord]:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        futures = [self._pool.submit(execute_job, payload) for payload in payloads]
        for future in as_completed(futures):
            yield future.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


#: Registry used by the CLI/env plumbing; order defines documentation order.
BACKENDS: dict[str, type[SimulationBackend]] = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}


def make_backend(name: str, workers: int | None = None) -> SimulationBackend:
    """Instantiate a backend by name (``serial``/``process``)."""
    try:
        backend_cls = BACKENDS[name]
    except KeyError:
        raise ExecutionError(
            f"unknown execution backend {name!r}; known: {sorted(BACKENDS)}"
        ) from None
    if backend_cls is SerialBackend:
        return SerialBackend()
    return backend_cls(workers)
