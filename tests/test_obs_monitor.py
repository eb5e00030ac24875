"""Tests for the live run monitor: tailer robustness, state, dashboard."""

import io
import json
import os

import pytest

from repro.obs.monitor import (
    JournalTailer,
    MonitorState,
    render_dashboard,
    run_monitor,
)



def _write(path, text, mode="a"):
    with open(path, mode, encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()


class TestJournalTailer:
    def test_reads_appended_events_incrementally(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, '{"event": "a"}\n')
        with JournalTailer(path) as tailer:
            assert [e["event"] for e in tailer.poll()] == ["a"]
            assert tailer.poll() == []
            _write(path, '{"event": "b"}\n{"event": "c"}\n')
            assert [e["event"] for e in tailer.poll()] == ["b", "c"]

    def test_missing_file_waits_then_reads(self, tmp_path):
        path = tmp_path / "late.jsonl"
        with JournalTailer(path) as tailer:
            assert tailer.poll() == []
            _write(path, '{"event": "a"}\n', mode="w")
            assert [e["event"] for e in tailer.poll()] == ["a"]

    def test_partial_line_buffered_until_newline(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, '{"event": "a"}\n{"event": "par')
        with JournalTailer(path) as tailer:
            assert [e["event"] for e in tailer.poll()] == ["a"]
            assert tailer.has_partial_line
            _write(path, 'tial"}\n')
            assert [e["event"] for e in tailer.poll()] == ["partial"]
            assert not tailer.has_partial_line

    def test_malformed_lines_counted_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, '{"event": "a"}\nnot json at all\n{"no-event": 1}\n{"event": "b"}\n')
        with JournalTailer(path) as tailer:
            assert [e["event"] for e in tailer.poll()] == ["a", "b"]
            assert tailer.malformed == 2

    def test_truncation_rewinds_to_start(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, '{"event": "a"}\n{"event": "b"}\n')
        with JournalTailer(path) as tailer:
            assert len(tailer.poll()) == 2
            _write(path, '{"event": "fresh"}\n', mode="w")  # shrink the file
            assert [e["event"] for e in tailer.poll()] == ["fresh"]

    def test_rotation_reopens_new_inode(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, '{"event": "a"}\n')
        with JournalTailer(path) as tailer:
            assert len(tailer.poll()) == 1
            os.rename(path, tmp_path / "j.jsonl.1")
            # The replacement is longer than the already-consumed offset, so
            # only the inode change can reveal the swap.
            _write(
                path,
                '{"event": "x"}\n{"event": "y"}\n{"event": "z"}\n',
                mode="w",
            )
            assert [e["event"] for e in tailer.poll()] == ["x", "y", "z"]


class TestMonitorState:
    def test_aggregates_runs_batches_spans_cache(self):
        state = MonitorState()
        state.update(
            [
                {"event": "run_start", "run_id": "r1", "command": "get_real", "ts": 1.0},
                {"event": "batch_done", "run_id": "r1", "jobs": 5, "duration_seconds": 0.5, "ts": 2.0},
                {"event": "span", "name": "exec.batch", "duration_seconds": 0.5, "ts": 2.0},
                {"event": "profile_done", "run_id": "r1", "ts": 2.5},
                {"event": "cache", "op": "hit", "entries": 2, "ts": 2.6},
                {"event": "cache", "op": "miss", "entries": 2, "ts": 2.7},
                {"event": "equilibrium_found", "run_id": "r1", "kind": "pure", "ts": 3.0},
                {"event": "run_end", "run_id": "r1", "status": "ok", "duration_seconds": 2.0, "ts": 3.0},
            ]
        )
        assert state.events == 8
        assert state.batches == 1 and state.jobs_completed == 5
        (view,) = state.runs
        assert view.status == "ok"
        assert view.profiles == 1
        assert view.equilibrium == "pure"
        assert view.duration_seconds == 2.0
        assert state.span_totals["exec.batch"] == (1, 0.5)
        assert state.cache_hit_rate == pytest.approx(0.5)

    def test_interleaved_runs_route_by_run_id(self):
        state = MonitorState()
        state.update(
            [
                {"event": "run_start", "run_id": "r1", "command": "a"},
                {"event": "run_start", "run_id": "r2", "command": "b"},
                {"event": "profile_done", "run_id": "r1"},
                {"event": "run_end", "run_id": "r2", "status": "ok"},
                {"event": "run_end", "run_id": "r1", "status": "error"},
            ]
        )
        by_id = {view.run_id: view for view in state.runs}
        assert by_id["r1"].profiles == 1
        assert by_id["r1"].status == "error"
        assert by_id["r2"].profiles == 0
        assert by_id["r2"].status == "ok"

    def test_throughput_window(self):
        state = MonitorState()
        state.apply({"event": "batch_done", "jobs": 10, "ts": 100.0})
        state.apply({"event": "batch_done", "jobs": 10, "ts": 105.0})
        assert state.throughput_jobs_per_second(now=110.0) == pytest.approx(2.0)
        # Entries older than the window are dropped.
        assert state.throughput_jobs_per_second(now=1000.0) == 0.0

    def test_cache_hit_rate_none_without_lookups(self):
        assert MonitorState().cache_hit_rate is None


class TestDashboard:
    def test_render_contains_core_panels(self):
        state = MonitorState()
        state.update(
            [
                {"event": "run_start", "run_id": "r", "command": "get_real", "ts": 1.0},
                {"event": "batch_done", "jobs": 4, "duration_seconds": 0.4, "ts": 1.5},
                {"event": "span", "name": "exec.job", "duration_seconds": 0.1, "ts": 1.5},
            ]
        )
        panel = render_dashboard(state, "run.jsonl", now=2.0)
        assert "repro run monitor" in panel
        assert "get_real" in panel
        assert "batches: 1" in panel
        assert "exec.job" in panel

    def test_render_empty_state(self):
        panel = render_dashboard(MonitorState(), "missing.jsonl")
        assert "(no runs yet)" in panel


class TestRunMonitor:
    def test_once_renders_fixture_dashboard(self, run_journal):
        out = io.StringIO()
        code = run_monitor(run_journal, once=True, stream=out)
        assert code == 0
        panel = out.getvalue()
        assert "get_real" in panel
        assert "batches: 2" in panel
        assert "getreal.run" in panel

    def test_duration_bound_loop_over_growing_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, json.dumps({"event": "run_start", "run_id": "r", "command": "x"}) + "\n")
        out = io.StringIO()
        code = run_monitor(
            path, interval=0.01, duration=0.05, clear_screen=False, stream=out
        )
        assert code == 0
        assert "x" in out.getvalue()

    def test_stop_callback_ends_loop(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, '{"event": "run_start", "run_id": "r", "command": "x"}\n')
        calls = []

        def stop():
            calls.append(1)
            return True

        out = io.StringIO()
        assert run_monitor(path, stop=stop, clear_screen=False, stream=out) == 0
        assert calls  # consulted at least once
