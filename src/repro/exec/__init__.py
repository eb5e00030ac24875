"""Pluggable batched execution engine for Monte-Carlo simulation.

Public surface: the :class:`Executor` facade, the job types it schedules
(:class:`CompetitiveJob` with its :class:`ProfileCell`, anything
satisfying the :class:`SimulationJob` protocol), the serial and
process backends, and the env-driven default-executor plumbing.  See ``docs/execution.md`` for the design and
the SeedSequence-spawn determinism scheme.
"""

from repro.exec.backends import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    SimulationBackend,
    make_backend,
)
from repro.exec.executor import (
    Executor,
    JobOutcome,
    build_executor,
    default_executor,
    reset_default_executor,
    resolve_executor,
)
from repro.exec.jobs import (
    CompetitiveJob,
    ProfileCell,
    SimulationJob,
)

__all__ = [
    "BACKENDS",
    "CompetitiveJob",
    "Executor",
    "JobOutcome",
    "ProcessBackend",
    "ProfileCell",
    "SerialBackend",
    "SimulationBackend",
    "SimulationJob",
    "build_executor",
    "default_executor",
    "make_backend",
    "reset_default_executor",
    "resolve_executor",
]
