"""Declarative scenario-matrix orchestrator.

The one way to run experiments: every table, figure, ablation and extension
of the reproduction is a matrix spec under ``benchmarks/matrices/``.
Turns a JSON *matrix spec* — the cross product dataset × model ×
backend × symmetry × k, plus pinned scale knobs — into scenario cells,
runs each cell's registered scenario (:mod:`repro.experiments.scenarios`)
through the batched :class:`~repro.exec.executor.Executor`, applies the
scenario's check to the cell's metrics, journals every cell as a span in
a JSONL run journal, writes a manifest (with every cell's metrics), and —
when the spec names a ``trajectory`` — appends one schema-validated entry
to that ``BENCH_*`` file through the atomic
:class:`~repro.experiments.trajectory.TrajectoryStore`.

A spec file looks like::

    {
      "name": "smoke",
      "scenario": "competitive_spread",
      "trajectory": "BENCH_orchestrator_smoke.json",
      "datasets": ["hep"],
      "models": ["ic", "wc"],
      "backends": ["serial"],
      "symmetries": ["full"],
      "ks": [5],
      "nodes": 300, "rounds": 6, "snapshots": 8, "seed": 2015
    }

Scale knobs present in the spec (``nodes``/``rounds``/``snapshots``/
``seed``/``ic_probability``/``workers``) override the constant defaults
of :class:`~repro.experiments.config.ExperimentConfig`; the checked-in
specs pin all of them, so they reproduce bit-identically wherever they run.

Cells never abort the campaign: a scenario that raises, or whose check
rejects its metrics, is recorded as a failed cell in the manifest (and as
``status: "failed"`` in the trajectory entry) and the run carries on — the
CLI exits non-zero at the end.

``python -m repro experiments run|gate|list`` is the command-line surface;
the regression gate lives in :mod:`repro.experiments.gate`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dataclass_fields
from datetime import datetime, timezone
from itertools import product
from pathlib import Path
from collections.abc import Mapping, Sequence
from typing import Any

from repro.core.payoff import resolve_symmetry
from repro.errors import ExperimentError
from repro.exec.backends import BACKENDS
from repro.exec.executor import Executor, build_executor
from repro.experiments.config import MODEL_KINDS, ExperimentConfig
from repro.experiments.scenarios import (
    ScenarioCell,
    get_scenario,
    lookup,
)
from repro.experiments.trajectory import TrajectoryStore
from repro.graphs.datasets import DATASETS
from repro.graphs.digraph import DiGraph
from repro.obs.journal import RunJournal, attached
from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.utils.timing import Stopwatch

_LOG = get_logger("experiments.orchestrator")


def _utc_timestamp() -> str:
    # Trajectory entries record *when* a benchmark ran — the timestamp is
    # the product, not hidden nondeterminism.
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class MatrixSpec:
    """A validated, declarative scenario matrix."""

    name: str
    scenario: str = "competitive_spread"
    trajectory: Path | None = None
    datasets: tuple[str, ...] = ("hep",)
    models: tuple[str, ...] = ("ic",)
    backends: tuple[str, ...] = ("serial",)
    symmetries: tuple[str, ...] = ("full",)
    ks: tuple[int, ...] = (5,)
    nodes: int | None = None
    rounds: int | None = None
    snapshots: int | None = None
    seed: int | None = None
    workers: int | None = None
    ic_probability: float | None = None

    # ------------------------------------------------------------------ #
    # construction / validation
    # ------------------------------------------------------------------ #

    @classmethod
    def from_file(cls, path: str | Path) -> "MatrixSpec":
        """Load and validate a spec from a JSON file.

        A relative ``trajectory`` path resolves against the spec file's
        directory's *repository root convention*: the current working
        directory (so checked-in specs can point at the repo-root
        ``BENCH_*.json`` files regardless of where the spec lives).
        """
        path = Path(path)
        if not path.exists():
            raise ExperimentError(f"matrix spec not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(data, source=str(path))

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], source: str = "<dict>"
    ) -> "MatrixSpec":
        """Validate a spec mapping; unknown keys and bad axes raise."""
        if not isinstance(data, Mapping):
            raise ExperimentError(
                f"{source}: matrix spec must be a JSON object"
            )
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ExperimentError(
                f"{source}: unknown matrix spec keys {unknown}; "
                f"known: {sorted(known)}"
            )
        if not str(data.get("name", "")).strip():
            raise ExperimentError(f"{source}: matrix spec needs a 'name'")

        def axis(key: str, default: tuple[Any, ...]) -> tuple[Any, ...]:
            raw = data.get(key, default)
            if isinstance(raw, (str, int, float)):
                raw = [raw]
            values = tuple(raw)
            if not values:
                raise ExperimentError(f"{source}: axis {key!r} must not be empty")
            return values

        datasets = tuple(str(d) for d in axis("datasets", ("hep",)))
        for dataset in datasets:
            if dataset not in DATASETS:
                raise ExperimentError(
                    f"{source}: unknown dataset {dataset!r}; "
                    f"available: {sorted(DATASETS)}"
                )
        models = tuple(str(m) for m in axis("models", ("ic",)))
        for model in models:
            if model not in MODEL_KINDS:
                raise ExperimentError(
                    f"{source}: unknown model {model!r}; known: {MODEL_KINDS}"
                )
        backends = tuple(str(b) for b in axis("backends", ("serial",)))
        for backend in backends:
            if backend not in BACKENDS:
                raise ExperimentError(
                    f"{source}: unknown backend {backend!r}; "
                    f"known: {sorted(BACKENDS)}"
                )
        symmetries = tuple(
            resolve_symmetry(str(s)) for s in axis("symmetries", ("full",))
        )
        ks = tuple(int(k) for k in axis("ks", (5,)))
        if any(k < 1 for k in ks):
            raise ExperimentError(f"{source}: every k must be >= 1, got {ks}")

        scenario_name = str(data.get("scenario", "competitive_spread"))
        get_scenario(scenario_name)  # raises on unknown scenarios

        def knob(key: str, kind: type) -> Any:
            raw = data.get(key)
            if raw is None:
                return None
            value = kind(raw)
            if kind is int and value < 1:
                raise ExperimentError(
                    f"{source}: {key!r} must be >= 1, got {value}"
                )
            return value

        trajectory = data.get("trajectory")
        return cls(
            name=str(data["name"]),
            scenario=scenario_name,
            trajectory=Path(trajectory) if trajectory else None,
            datasets=datasets,
            models=models,
            backends=backends,
            symmetries=symmetries,
            ks=ks,
            nodes=knob("nodes", int),
            rounds=knob("rounds", int),
            snapshots=knob("snapshots", int),
            seed=None if data.get("seed") is None else int(data["seed"]),
            workers=knob("workers", int),
            ic_probability=(
                None
                if data.get("ic_probability") is None
                else float(data["ic_probability"])
            ),
        )

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #

    def expand(self) -> list[ScenarioCell]:
        """Every cell of the matrix, in deterministic axis order."""
        return [
            ScenarioCell(
                dataset=dataset,
                model=model,
                backend=backend,
                symmetry=symmetry,
                k=k,
            )
            for dataset, model, backend, symmetry, k in product(
                self.datasets,
                self.models,
                self.backends,
                self.symmetries,
                self.ks,
            )
        ]

    def config_overrides(self) -> dict[str, Any]:
        """The spec's pinned scale knobs as ``ExperimentConfig`` kwargs."""
        overrides: dict[str, Any] = {}
        if self.nodes is not None:
            overrides["nodes_budget"] = self.nodes
        if self.rounds is not None:
            overrides["rounds"] = self.rounds
        if self.snapshots is not None:
            overrides["snapshots"] = self.snapshots
        if self.seed is not None:
            overrides["seed"] = self.seed
        if self.ic_probability is not None:
            overrides["ic_probability"] = self.ic_probability
        return overrides

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready spec echo for manifests and trajectory entries."""
        return {
            "name": self.name,
            "scenario": self.scenario,
            "trajectory": str(self.trajectory) if self.trajectory else None,
            "datasets": list(self.datasets),
            "models": list(self.models),
            "backends": list(self.backends),
            "symmetries": list(self.symmetries),
            "ks": list(self.ks),
            **self.config_overrides(),
        }


@dataclass
class CellResult:
    """Outcome of one scenario cell."""

    cell: ScenarioCell
    status: str
    seconds: float
    metrics: dict[str, Any] | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class MatrixRunResult:
    """Outcome of a whole matrix run."""

    spec: MatrixSpec
    results: list[CellResult]
    entry: dict[str, Any]
    manifest: dict[str, Any]
    output_dir: Path | None = None
    results_rows: list[dict[str, Any]] = field(default_factory=list)

    @property
    def failed(self) -> list[CellResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failed


def run_matrix(
    spec: MatrixSpec,
    output_dir: str | Path | None = None,
    journal_path: str | Path | None = None,
    append: bool = True,
) -> MatrixRunResult:
    """Run every cell of *spec*; write manifest + trajectory entry.

    Parameters
    ----------
    spec:
        The validated matrix.
    output_dir:
        Where ``manifest.json``, ``cells.txt`` and (unless *journal_path*
        overrides it) ``journal.jsonl`` land.  ``None`` skips all file
        output except the trajectory append.
    journal_path:
        Explicit JSONL journal destination (defaults to
        ``<output_dir>/journal.jsonl`` when an output directory is given).
    append:
        Append the run's entry to the spec's trajectory store (requires
        ``spec.trajectory``); disable for gate-only fresh runs.  The CLI
        appends only for specs that name a trajectory.
    """
    cells = spec.expand()
    out = Path(output_dir) if output_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        if journal_path is None:
            journal_path = out / "journal.jsonl"

    journal = RunJournal(journal_path) if journal_path is not None else None
    results: list[CellResult] = []
    total_watch = Stopwatch()
    try:
        if journal is not None:
            journal.run_start(
                "experiments.run",
                matrix=spec.name,
                scenario=spec.scenario,
                cells=len(cells),
            )
        with total_watch:
            _run_cells(spec, cells, results, journal)
        _apply_matrix_check(spec, results)
        if journal is not None:
            journal.run_end(
                status="ok" if all(r.ok for r in results) else "error",
                duration_seconds=total_watch.elapsed,
            )
    finally:
        if journal is not None:
            journal.close()

    entry = _trajectory_entry(spec, results, total_watch.elapsed)
    manifest = _manifest(spec, results, total_watch.elapsed, journal_path)
    rows = _result_rows(results)
    if out is not None:
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, default=str) + "\n"
        )
        from repro.utils.tables import format_table

        (out / "cells.txt").write_text(
            format_table(rows, title=f"matrix {spec.name} [{spec.scenario}]")
            + "\n"
        )
    if append:
        if spec.trajectory is None:
            raise ExperimentError(
                f"matrix {spec.name!r} has no 'trajectory' path to append to"
            )
        TrajectoryStore(spec.trajectory).append(entry)
    failed = [r for r in results if not r.ok]
    _LOG.info(
        "matrix %s: %d/%d cells ok in %.2fs",
        spec.name,
        len(results) - len(failed),
        len(results),
        total_watch.elapsed,
    )
    return MatrixRunResult(
        spec=spec,
        results=results,
        entry=entry,
        manifest=manifest,
        output_dir=out,
        results_rows=rows,
    )


def _run_cells(
    spec: MatrixSpec,
    cells: Sequence[ScenarioCell],
    results: list[CellResult],
    journal: RunJournal | None,
) -> None:
    """Execute every cell, sharing graphs and per-backend executors."""
    scenario_fn, _, check, _ = lookup(spec.scenario)
    overrides = spec.config_overrides()
    graph_cache: dict[str, DiGraph] = {}
    executors: dict[str, Executor] = {}
    try:
        for cell in cells:
            config = ExperimentConfig(
                backend=cell.backend,
                symmetry=cell.symmetry,
                **overrides,
            )
            if spec.workers is not None:
                config.workers = spec.workers
            # Share the graph cache and one executor per backend across
            # cells: the matrix is a cross product, so most cells reuse
            # both, and MixGreedy's selection cache keys on the graph
            # object's fingerprint either way.
            config._graph_cache = graph_cache
            if cell.backend not in executors:
                executors[cell.backend] = build_executor(
                    cell.backend, config.workers
                )
            config._executor = executors[cell.backend]
            watch = Stopwatch()
            metrics: dict[str, Any] | None = None
            journal_scope = (
                attached(journal) if journal is not None else _null_scope()
            )
            try:
                with journal_scope, span(
                    "experiments.cell",
                    journal=journal is not None,
                    cell=cell.cell_id,
                    matrix=spec.name,
                    scenario=spec.scenario,
                ), watch:
                    metrics = dict(scenario_fn(cell, config))
                if check is not None:
                    check(metrics)
            except Exception as exc:  # cell failures must not kill the run
                error = f"{type(exc).__name__}: {exc}"
                _LOG.warning("cell %s failed: %s", cell.cell_id, error)
                # A failed check keeps the metrics it rejected.
                results.append(
                    CellResult(
                        cell=cell,
                        status="failed",
                        seconds=watch.elapsed,
                        metrics=metrics,
                        error=error,
                    )
                )
                continue
            results.append(
                CellResult(
                    cell=cell,
                    status="ok",
                    seconds=watch.elapsed,
                    metrics=metrics,
                )
            )
    finally:
        for executor in executors.values():
            executor.close()


def _apply_matrix_check(spec: MatrixSpec, results: list[CellResult]) -> None:
    """Fail every ok cell when the run violates the scenario's matrix check."""
    matrix_check = lookup(spec.scenario).matrix_check
    ok = [r for r in results if r.ok]
    if matrix_check is None or not ok:
        return
    try:
        matrix_check([(r.cell, r.metrics or {}) for r in ok])
    except Exception as exc:
        error = f"matrix check: {type(exc).__name__}: {exc}"
        _LOG.warning("matrix %s failed its check: %s", spec.name, error)
        for result in ok:
            result.status = "failed"
            result.error = error


class _null_scope:
    """``with``-compatible no-op used when no journal is configured."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


def _trajectory_entry(
    spec: MatrixSpec, results: Sequence[CellResult], elapsed: float
) -> dict[str, Any]:
    """The run's trajectory entry (the gate's comparison unit)."""
    cells: dict[str, Any] = {}
    for result in results:
        record: dict[str, Any] = {"status": result.status}
        if result.metrics is not None:
            record["metrics"] = result.metrics
        if result.error is not None:
            record["error"] = result.error
        cells[result.cell.cell_id] = record
    return {
        "timestamp": _utc_timestamp(),
        "matrix": spec.name,
        "scenario": spec.scenario,
        "config": {
            key: value
            for key, value in spec.as_dict().items()
            if key != "trajectory"
        },
        "total_s": round(elapsed, 3),
        "cells": cells,
    }


def _manifest(
    spec: MatrixSpec,
    results: Sequence[CellResult],
    elapsed: float,
    journal_path: str | Path | None,
) -> dict[str, Any]:
    failed = [r for r in results if not r.ok]
    return {
        "matrix": spec.as_dict(),
        "status": "ok" if not failed else "failed",
        "cells_total": len(results),
        "cells_failed": len(failed),
        "total_seconds": round(elapsed, 3),
        "journal": str(journal_path) if journal_path is not None else None,
        "cells": {
            result.cell.cell_id: {
                "status": result.status,
                "seconds": round(result.seconds, 3),
                **({"error": result.error} if result.error else {}),
                **({"metrics": result.metrics} if result.metrics else {}),
            }
            for result in results
        },
    }


def _flatten(metrics: Mapping[str, Any], prefix: str = "") -> dict[str, Any]:
    """Nested metrics as ``{"a/b": leaf}``; estimates are leaves."""
    flat: dict[str, Any] = {}
    for key, value in metrics.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping) and "mean" not in value:
            flat.update(_flatten(value, f"{name}/"))
        else:
            flat[name] = value
    return flat


def _result_rows(results: Sequence[CellResult]) -> list[dict[str, Any]]:
    """One row per cell metric for the CLI table / ``cells.txt``."""
    rows: list[dict[str, Any]] = []
    for result in results:
        metrics: dict[str, Any] = {"seconds": round(result.seconds, 3)}
        metrics.update(_flatten(result.metrics or {}))
        if result.error:
            metrics["error"] = result.error
        for key, value in metrics.items():
            row: dict[str, Any] = {
                "cell": result.cell.cell_id,
                "status": result.status,
                "metric": key,
                "value": value,
                "stderr": "",
            }
            if isinstance(value, Mapping):
                row["value"] = float(value["mean"])
                row["stderr"] = float(value["stderr"])
            rows.append(row)
    return rows
