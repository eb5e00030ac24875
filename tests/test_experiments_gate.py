"""Tests for the trajectory regression gate."""

import pytest

from repro.errors import GateError
from repro.experiments.gate import (
    compare_entries,
    entries_comparable,
    gate_trajectory,
    select_baseline,
)
from repro.experiments.trajectory import TrajectoryStore


def entry(timestamp="t1", **overrides):
    """A representative orchestrator-shaped trajectory entry."""
    base = {
        "timestamp": timestamp,
        "matrix": "smoke",
        "scenario": "competitive_spread",
        "config": {"nodes": 300, "rounds": 6, "seed": 2015},
        "total_s": 1.25,
        "cells": {
            "hep/ic/serial/full/k5": {
                "status": "ok",
                "metrics": {
                    "p1_spread": {"mean": 10.0, "stderr": 0.5},
                    "p2_spread": {"mean": 8.0, "stderr": 0.4},
                },
            },
        },
    }
    base.update(overrides)
    return base


def cell(base, name="hep/ic/serial/full/k5"):
    return base["cells"][name]


class TestCompareEntries:
    def test_identical_entries_pass(self):
        report = compare_entries(entry(), entry(timestamp="t2"))
        assert report.passed
        assert report.checked > 0

    def test_mean_drift_beyond_pooled_stderr_fails(self):
        cand = entry(timestamp="t2")
        cell(cand)["metrics"]["p1_spread"]["mean"] = 20.0
        report = compare_entries(entry(), cand)
        assert not report.passed
        (finding,) = report.findings
        assert finding.kind == "equivalence_drift"
        assert "p1_spread" in finding.path

    def test_mean_drift_within_pooled_stderr_passes(self):
        cand = entry(timestamp="t2")
        # gap 1.0 <= 3 * sqrt(0.5^2 + 0.5^2) ~= 2.12
        cell(cand)["metrics"]["p1_spread"]["mean"] = 11.0
        assert compare_entries(entry(), cand).passed

    def test_zero_stderr_requires_bit_identical_means(self):
        base = entry()
        cell(base)["metrics"]["p1_spread"]["stderr"] = 0.0
        cand = entry(timestamp="t2")
        cell(cand)["metrics"]["p1_spread"]["stderr"] = 0.0
        cell(cand)["metrics"]["p1_spread"]["mean"] = 10.0001
        report = compare_entries(base, cand)
        assert not report.passed
        assert report.findings[0].kind == "equivalence_drift"

    def test_speedup_regression_beyond_tolerance_fails(self):
        base = entry()
        cell(base)["metrics"]["speedup"] = 3.0
        cand = entry(timestamp="t2")
        cell(cand)["metrics"]["speedup"] = 2.0  # < 3.0 * 0.8 = 2.4
        report = compare_entries(base, cand)
        assert not report.passed
        (finding,) = report.findings
        assert finding.kind == "speedup_regression"
        assert finding.limit == pytest.approx(2.4)

    def test_speedup_at_tolerance_boundary_passes(self):
        base = entry()
        cell(base)["metrics"]["speedup"] = 3.0
        cand = entry(timestamp="t2")
        cell(cand)["metrics"]["speedup"] = 2.4  # exactly the floor
        assert compare_entries(base, cand).passed

    def test_speedup_tolerance_is_configurable(self):
        base = entry()
        cell(base)["metrics"]["speedup"] = 3.0
        cand = entry(timestamp="t2")
        cell(cand)["metrics"]["speedup"] = 2.8
        assert compare_entries(base, cand).passed
        assert not compare_entries(base, cand, tolerance=0.05).passed

    def test_nested_bench_shaped_speedup_is_gated(self):
        """The existing BENCH_payoff_sharing.json shape gates as-is."""
        base = {
            "timestamp": "t1",
            "dataset": "hep",
            "seed": 23,
            "r3": {"full_s": 10.0, "reduce_s": 4.0, "speedup": 2.5},
        }
        cand = {
            "timestamp": "t2",
            "dataset": "hep",
            "seed": 23,
            "r3": {"full_s": 10.0, "reduce_s": 8.0, "speedup": 1.25},
        }
        report = compare_entries(base, cand)
        assert not report.passed
        (finding,) = report.findings
        assert finding.path == "r3.speedup"
        assert finding.kind == "speedup_regression"

    def test_time_keys_ignored_by_default(self):
        cand = entry(timestamp="t2", total_s=99.0)
        assert compare_entries(entry(), cand).passed

    def test_time_keys_gated_when_time_tolerance_set(self):
        cand = entry(timestamp="t2", total_s=99.0)
        report = compare_entries(entry(), cand, time_tolerance=0.5)
        assert not report.passed
        assert report.findings[0].kind == "time_regression"

    def test_missing_metric_fails(self):
        cand = entry(timestamp="t2")
        del cell(cand)["metrics"]["p2_spread"]
        report = compare_entries(entry(), cand)
        assert not report.passed
        assert report.findings[0].kind == "missing"

    def test_cell_turned_failed_fails(self):
        cand = entry(timestamp="t2")
        cell(cand)["status"] = "failed"
        cell(cand)["error"] = "ValueError: boom"
        report = compare_entries(entry(), cand)
        assert not report.passed
        assert any(f.kind == "cell_failed" for f in report.findings)

    def test_string_metric_drift_fails(self):
        base = entry()
        cell(base)["metrics"]["kind"] = "pure"
        cand = entry(timestamp="t2")
        cell(cand)["metrics"]["kind"] = "mixed"
        report = compare_entries(base, cand)
        assert not report.passed
        assert report.findings[0].kind == "value_drift"

    def test_bare_numbers_are_context_not_metrics(self):
        base = entry()
        cell(base)["metrics"]["cache_hits"] = 100
        cand = entry(timestamp="t2")
        cell(cand)["metrics"]["cache_hits"] = 3
        assert compare_entries(base, cand).passed

    def test_render_mentions_pass_and_fail(self):
        ok = compare_entries(entry(), entry(timestamp="t2"))
        assert "PASS" in ok.render()
        cand = entry(timestamp="t2")
        cell(cand)["metrics"]["p1_spread"]["mean"] = 50.0
        bad = compare_entries(entry(), cand)
        assert "FAIL" in bad.render()
        assert "p1_spread" in bad.render()


class TestBaselineSelection:
    def test_context_change_breaks_comparability(self):
        other = entry(timestamp="t0", config={"nodes": 5000, "rounds": 6, "seed": 2015})
        assert not entries_comparable(other, entry())
        assert entries_comparable(entry(timestamp="t0"), entry())

    def test_select_most_recent_comparable(self):
        history = [
            entry(timestamp="t0"),
            entry(timestamp="t1", config={"nodes": 99, "rounds": 6, "seed": 2015}),
            entry(timestamp="t2"),
        ]
        baseline = select_baseline(history, entry(timestamp="t3"))
        assert baseline["timestamp"] == "t2"

    def test_entry_of_another_format_is_not_a_baseline(self, tmp_path):
        """An entry sharing no context key with the candidate is not its twin."""
        legacy = {
            "timestamp": "t0",
            "dataset": "hep",
            "nodes": 1200,
            "rounds": 100,
            "k": 10,
            "seed": 58,
            "r3": {"full_s": 0.5, "reduce_s": 0.1, "speedup": 5.0},
            "r2": {"full_s": 0.14, "reduce_s": 0.07, "speedup": 2.0},
            "sweep": {"cold_s": 0.6, "warm_s": 0.02, "cache_hits": 6},
        }
        assert not entries_comparable(legacy, entry())
        assert not entries_comparable(entry(), legacy)
        store = TrajectoryStore(tmp_path / "BENCH_mixed.json")
        store.append(legacy)
        store.append(entry())
        report = gate_trajectory(store.path)
        assert report.passed
        assert report.skipped_reason is not None
        assert report.findings == []

    def test_no_comparable_baseline_returns_none(self):
        history = [entry(timestamp="t0", matrix="other")]
        assert select_baseline(history, entry()) is None


class TestGateTrajectory:
    def test_empty_trajectory_raises(self, tmp_path):
        with pytest.raises(GateError, match="empty"):
            gate_trajectory(tmp_path / "BENCH_none.json")

    def test_single_entry_passes_with_skip_reason(self, tmp_path):
        store = TrajectoryStore(tmp_path / "BENCH_one.json")
        store.append(entry())
        report = gate_trajectory(store.path)
        assert report.passed
        assert report.skipped_reason is not None
        assert "PASS" in report.render()

    def test_two_identical_runs_pass(self, tmp_path):
        store = TrajectoryStore(tmp_path / "BENCH_two.json")
        store.append(entry(timestamp="t1"))
        store.append(entry(timestamp="t2"))
        report = gate_trajectory(store.path)
        assert report.passed
        assert report.skipped_reason is None
        assert report.baseline_timestamp == "t1"
        assert report.candidate_timestamp == "t2"

    def test_injected_regression_fails_gate(self, tmp_path):
        """Acceptance: the gate demonstrably fails on a planted regression."""
        store = TrajectoryStore(tmp_path / "BENCH_reg.json")
        good = entry(timestamp="t1")
        cell(good)["metrics"]["speedup"] = 2.5
        store.append(good)
        bad = entry(timestamp="t2")
        cell(bad)["metrics"]["speedup"] = 1.0
        cell(bad)["metrics"]["p1_spread"]["mean"] = 30.0
        store.append(bad)
        report = gate_trajectory(store.path)
        assert not report.passed
        kinds = {f.kind for f in report.findings}
        assert kinds == {"speedup_regression", "equivalence_drift"}

    def test_scale_change_starts_new_lineage(self, tmp_path):
        store = TrajectoryStore(tmp_path / "BENCH_scale.json")
        store.append(entry(timestamp="t1"))
        rescaled = entry(
            timestamp="t2", config={"nodes": 9999, "rounds": 6, "seed": 2015}
        )
        cell(rescaled)["metrics"]["p1_spread"]["mean"] = 500.0
        store.append(rescaled)
        report = gate_trajectory(store.path)
        assert report.passed
        assert report.skipped_reason is not None

    def test_explicit_candidate_compares_against_full_history(self, tmp_path):
        store = TrajectoryStore(tmp_path / "BENCH_cand.json")
        store.append(entry(timestamp="t1"))
        fresh = entry(timestamp="t9")
        cell(fresh)["metrics"]["p1_spread"]["mean"] = 30.0
        report = gate_trajectory(store.path, candidate=fresh)
        assert not report.passed
        assert report.baseline_timestamp == "t1"
