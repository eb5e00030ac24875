"""Experiment harness: the scenario-matrix orchestrator and its gate.

* :mod:`repro.experiments.orchestrator` — the declarative scenario-matrix
  runner behind ``python -m repro experiments run``, the one way to
  regenerate a paper artifact (specs under ``benchmarks/matrices/``);
* :mod:`repro.experiments.scenarios` — the scenario plugin registry and
  the built-in GetReal scenarios;
* :mod:`repro.experiments.figures` — the paper's tables and figures;
* :mod:`repro.experiments.extensions` — ablations and extensions;
* :mod:`repro.experiments.config` — the per-cell configuration;
* :mod:`repro.experiments.trajectory` — the atomic ``BENCH_*.json``
  trajectory store;
* :mod:`repro.experiments.gate` — the trajectory regression gate behind
  ``python -m repro experiments gate``.
"""

# Importing the plugin modules registers their scenarios.
from repro.experiments import extensions, figures  # noqa: F401
from repro.experiments.config import ExperimentConfig
from repro.experiments.gate import (
    GateFinding,
    GateReport,
    compare_entries,
    gate_trajectory,
)
from repro.experiments.orchestrator import (
    CellResult,
    MatrixRunResult,
    MatrixSpec,
    run_matrix,
)
from repro.experiments.scenarios import (
    ScenarioCell,
    get_scenario,
    registered_scenarios,
    scenario,
)
from repro.experiments.trajectory import TrajectoryStore, append_trajectory

__all__ = [
    "ExperimentConfig",
    "MatrixSpec",
    "MatrixRunResult",
    "CellResult",
    "run_matrix",
    "ScenarioCell",
    "scenario",
    "get_scenario",
    "registered_scenarios",
    "TrajectoryStore",
    "append_trajectory",
    "GateFinding",
    "GateReport",
    "compare_entries",
    "gate_trajectory",
]
