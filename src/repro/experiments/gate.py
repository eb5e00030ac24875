"""Trajectory regression gate.

Compares a *candidate* benchmark-trajectory entry against a *baseline*
entry from the same :class:`~repro.experiments.trajectory.TrajectoryStore`
and reports typed findings.  ``python -m repro experiments gate`` turns
those findings into a non-zero exit, which is what lets every perf PR
prove itself in CI: run the matrix, append the fresh entry, gate it
against the checked-in history.

Comparison rules (applied recursively over the two entries' shared keys):

* ``{"mean": m, "stderr": s}`` objects are Monte-Carlo estimates — the
  gate fails when ``|m_base - m_cand|`` exceeds ``sigmas`` pooled standard
  errors (default 3.0, matching the ``payoff_speedup`` scenario's
  equivalence check).  When both stderrs are zero the values must match
  bit-for-bit: scenarios promise bit-identical results for a fixed seed;
* numeric keys ending in ``speedup`` are higher-is-better ratios — the
  gate fails when the candidate drops below ``baseline * (1 - tolerance)``
  (default tolerance 0.2);
* numeric keys ending in ``_s``/``_ms`` or containing ``seconds`` are
  wall-clock timings — compared only when ``time_tolerance`` is set
  (CI machines are too noisy for that to be a default);
* strings (equilibrium ``kind``, recommended strategy) must be equal;
* a cell/metric present in the baseline but missing from the candidate
  fails, as does a cell whose candidate ``status`` is not ``"ok"``;
* other bare numbers (byte counts, row counts, ...) are contextual and
  ignored.

Entries are only compared when *comparable*: their ``matrix``,
``scenario`` and ``config`` must be equal (an absent key counts as a
value), so a scale change (e.g. a smoke run after a full-scale run) or an
entry of another format starts a new comparison lineage instead of
producing nonsense findings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping, Sequence
from typing import Any

from repro.errors import GateError
from repro.experiments.trajectory import TrajectoryStore
from repro.utils.tables import format_table

#: Envelope/context keys never compared as metrics.
_SKIP_KEYS = frozenset(
    {
        "timestamp",
        "run_id",
        "matrix",
        "scenario",
        "config",
        "error",
        "seed",
        "backend",
        "symmetry",
        "edges",
        "snapshots",
        "samples",
    }
)

#: Keys that must match for two entries to be comparable at all.
_CONTEXT_KEYS = ("matrix", "scenario", "config")

#: Tolerated float fuzz when pooled stderr is exactly zero.
_EXACT_ATOL = 1e-9


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_estimate(value: object) -> bool:
    return (
        isinstance(value, Mapping) and "mean" in value and "stderr" in value
    )


def _is_time_key(key: str) -> bool:
    return key.endswith(("_s", "_ms")) or "seconds" in key


@dataclass(frozen=True)
class GateFinding:
    """One detected regression."""

    path: str
    kind: str
    baseline: Any
    candidate: Any
    limit: float | None
    message: str

    def as_row(self) -> dict[str, Any]:
        return {
            "metric": self.path,
            "kind": self.kind,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "limit": "" if self.limit is None else round(self.limit, 4),
        }


@dataclass
class GateReport:
    """Outcome of gating one candidate entry."""

    trajectory: str
    findings: list[GateFinding] = field(default_factory=list)
    checked: int = 0
    baseline_timestamp: str | None = None
    candidate_timestamp: str | None = None
    skipped_reason: str | None = None

    @property
    def passed(self) -> bool:
        return not self.findings

    def render(self) -> str:
        header = f"regression gate: {self.trajectory}"
        if self.skipped_reason is not None:
            return f"{header}\n  PASS (skipped: {self.skipped_reason})"
        lines = [
            header,
            f"  baseline  : {self.baseline_timestamp}",
            f"  candidate : {self.candidate_timestamp}",
            f"  checks    : {self.checked}",
        ]
        if self.passed:
            lines.append("  PASS")
            return "\n".join(lines)
        lines.append(f"  FAIL ({len(self.findings)} finding(s))")
        lines.append("")
        lines.append(
            format_table(
                [finding.as_row() for finding in self.findings],
                title="gate findings",
            )
        )
        lines.extend(f"  - {finding.message}" for finding in self.findings)
        return "\n".join(lines)


def entries_comparable(
    baseline: Mapping[str, Any], candidate: Mapping[str, Any]
) -> bool:
    """Whether two entries ran the same matrix, scenario and config."""
    return all(baseline.get(key) == candidate.get(key) for key in _CONTEXT_KEYS)


def select_baseline(
    history: Sequence[Mapping[str, Any]], candidate: Mapping[str, Any]
) -> Mapping[str, Any] | None:
    """Most recent entry before *candidate* that is comparable with it."""
    for entry in reversed(list(history)):
        if entry is candidate:
            continue
        if entries_comparable(entry, candidate):
            return entry
    return None


def compare_entries(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    tolerance: float = 0.2,
    sigmas: float = 3.0,
    time_tolerance: float | None = None,
) -> GateReport:
    """Diff *candidate* against *baseline*; returns the findings report."""
    report = GateReport(
        trajectory="<entries>",
        baseline_timestamp=str(baseline.get("timestamp")),
        candidate_timestamp=str(candidate.get("timestamp")),
    )
    _walk("", baseline, candidate, report, tolerance, sigmas, time_tolerance)
    return report


def _walk(
    path: str,
    base: Any,
    cand: Any,
    report: GateReport,
    tolerance: float,
    sigmas: float,
    time_tolerance: float | None,
) -> None:
    leaf = path.rsplit(".", 1)[-1]

    if _is_estimate(base) and _is_estimate(cand):
        report.checked += 1
        base_mean = float(base["mean"])
        cand_mean = float(cand["mean"])
        pooled = math.sqrt(
            float(base["stderr"]) ** 2 + float(cand["stderr"]) ** 2
        )
        gap = abs(base_mean - cand_mean)
        limit = sigmas * pooled if pooled > 0.0 else _EXACT_ATOL
        if gap > limit:
            report.findings.append(
                GateFinding(
                    path=path,
                    kind="equivalence_drift",
                    baseline=round(base_mean, 4),
                    candidate=round(cand_mean, 4),
                    limit=limit,
                    message=(
                        f"{path}: mean drifted {base_mean:.4f} -> "
                        f"{cand_mean:.4f} (gap {gap:.4f} > allowed {limit:.4f})"
                    ),
                )
            )
        return

    if isinstance(base, Mapping) and isinstance(cand, Mapping):
        for key, base_value in base.items():
            child = f"{path}.{key}" if path else str(key)
            if key == "status":
                report.checked += 1
                if base_value == "ok" and cand.get(key) != "ok":
                    report.findings.append(
                        GateFinding(
                            path=child,
                            kind="cell_failed",
                            baseline=base_value,
                            candidate=cand.get(key),
                            limit=None,
                            message=(
                                f"{path or 'entry'}: cell succeeded in the "
                                "baseline but failed in the candidate"
                            ),
                        )
                    )
                continue
            if key in _SKIP_KEYS:
                continue
            if key not in cand:
                report.findings.append(
                    GateFinding(
                        path=child,
                        kind="missing",
                        baseline="present",
                        candidate="absent",
                        limit=None,
                        message=(
                            f"{child}: recorded in the baseline but missing "
                            "from the candidate run"
                        ),
                    )
                )
                continue
            _walk(
                child, base_value, cand[key], report, tolerance, sigmas,
                time_tolerance,
            )
        return

    if _is_number(base) and _is_number(cand):
        base_f, cand_f = float(base), float(cand)
        if leaf.endswith("speedup"):
            report.checked += 1
            limit = base_f * (1.0 - tolerance)
            if cand_f < limit and not math.isclose(cand_f, limit, rel_tol=1e-9):
                report.findings.append(
                    GateFinding(
                        path=path,
                        kind="speedup_regression",
                        baseline=round(base_f, 3),
                        candidate=round(cand_f, 3),
                        limit=limit,
                        message=(
                            f"{path}: speedup regressed {base_f:.2f}x -> "
                            f"{cand_f:.2f}x (floor {limit:.2f}x at "
                            f"tolerance {tolerance:.0%})"
                        ),
                    )
                )
        elif _is_time_key(leaf):
            if time_tolerance is None:
                return
            report.checked += 1
            limit = base_f * (1.0 + time_tolerance)
            if cand_f > limit and not math.isclose(cand_f, limit, rel_tol=1e-9):
                report.findings.append(
                    GateFinding(
                        path=path,
                        kind="time_regression",
                        baseline=round(base_f, 4),
                        candidate=round(cand_f, 4),
                        limit=limit,
                        message=(
                            f"{path}: wall clock regressed {base_f:.3f}s -> "
                            f"{cand_f:.3f}s (ceiling {limit:.3f}s)"
                        ),
                    )
                )
        # Other bare numbers (byte counts, cache hits, ...) are context.
        return

    if isinstance(base, str) and isinstance(cand, str):
        report.checked += 1
        if base != cand:
            report.findings.append(
                GateFinding(
                    path=path,
                    kind="value_drift",
                    baseline=base,
                    candidate=cand,
                    limit=None,
                    message=f"{path}: value changed {base!r} -> {cand!r}",
                )
            )


def gate_trajectory(
    trajectory: str | Path,
    candidate: Mapping[str, Any] | None = None,
    tolerance: float = 0.2,
    sigmas: float = 3.0,
    time_tolerance: float | None = None,
) -> GateReport:
    """Gate the newest (or an explicit *candidate*) entry of *trajectory*.

    The baseline is the most recent *comparable* earlier entry (see
    :func:`entries_comparable`).  A trajectory with nothing to compare
    against — missing candidate context twin, or a single entry — passes
    with an explanatory ``skipped_reason`` rather than failing: the first
    run of a new matrix must be able to seed its own history.
    """
    store = TrajectoryStore(trajectory)
    history = store.read()
    if candidate is None:
        if not history:
            raise GateError(
                f"trajectory {store.path} is empty; run the matrix first"
            )
        candidate = history[-1]
        history = history[:-1]
    baseline = select_baseline(history, candidate)
    if baseline is None:
        return GateReport(
            trajectory=str(store.path),
            candidate_timestamp=str(candidate.get("timestamp")),
            skipped_reason=(
                "no comparable baseline entry in the trajectory "
                "(first run at this configuration)"
            ),
        )
    report = compare_entries(
        baseline,
        candidate,
        tolerance=tolerance,
        sigmas=sigmas,
        time_tolerance=time_tolerance,
    )
    report.trajectory = str(store.path)
    return report
