"""Tests for repro.obs.journal: JSONL run journal, reader, and CLI wiring."""

import json
import math

import pytest

from repro.cli import main
from repro.errors import JournalError
from repro.graphs.generators import karate_like_fixture
from repro.graphs.loaders import save_edge_list
from repro.obs.journal import (
    RunJournal,
    attach_journal,
    attached,
    current_journal,
    detach_journal,
    journal_report_tables,
    journal_summary_rows,
    read_journal,
    reconstruct_runs,
    render_journal_report,
)


@pytest.fixture
def journal_path(tmp_path):
    return tmp_path / "run.jsonl"


class TestRoundTrip:
    def test_write_then_read(self, journal_path):
        with RunJournal(journal_path, run_id="r1") as journal:
            journal.run_start("get_real", graph_nodes=34, k=3)
            journal.profile_start((0, 1), ["ddic", "random"])
            journal.profile_done(
                (0, 1),
                ["ddic", "random"],
                players=[
                    {"group": 0, "mean": 9.5, "stderr": 0.4, "samples": 20},
                    {"group": 1, "mean": 4.0, "stderr": 0.3, "samples": 20},
                ],
                duration_seconds=0.25,
            )
            journal.equilibrium_found(
                "pure", [1.0, 0.0], ["ddic", "random"], 0.0, 0.001
            )
            journal.run_end(status="ok", duration_seconds=0.5)

        events = read_journal(journal_path)
        assert [e["event"] for e in events] == [
            "run_start",
            "profile_start",
            "profile_done",
            "equilibrium_found",
            "run_end",
        ]
        assert all(e["run_id"] == "r1" for e in events)
        assert [e["seq"] for e in events] == [0, 1, 2, 3, 4]
        done = events[2]
        assert done["players"][0]["mean"] == 9.5
        assert done["duration_seconds"] == 0.25

    def test_lines_are_plain_jsonl(self, journal_path):
        with RunJournal(journal_path) as journal:
            journal.emit("note", message="hello")
        lines = journal_path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["event"] == "note"
        assert "ts" in record and "seq" in record

    def test_append_mode_across_journals(self, journal_path):
        with RunJournal(journal_path) as journal:
            journal.emit("note", message="first")
        with RunJournal(journal_path) as journal:
            journal.emit("note", message="second")
        assert [e["message"] for e in read_journal(journal_path)] == [
            "first",
            "second",
        ]

    def test_unknown_event_rejected(self, journal_path):
        journal = RunJournal(journal_path)
        with pytest.raises(JournalError, match="unknown journal event"):
            journal.emit("profile_dnoe")
        journal.close()

    def test_missing_file(self, tmp_path):
        with pytest.raises(JournalError, match="not found"):
            read_journal(tmp_path / "absent.jsonl")

    def test_corrupt_line(self, journal_path):
        journal_path.write_text('{"event": "note"}\nnot json\n')
        with pytest.raises(JournalError, match="not valid JSON"):
            read_journal(journal_path)

    def test_record_without_event_field(self, journal_path):
        journal_path.write_text('{"ts": 1}\n')
        with pytest.raises(JournalError, match="'event' field"):
            read_journal(journal_path)


class TestActiveJournalStack:
    def test_attach_detach(self, journal_path):
        assert current_journal() is None
        journal = RunJournal(journal_path)
        attach_journal(journal)
        assert current_journal() is journal
        detach_journal(journal)
        assert current_journal() is None

    def test_attached_context_manager(self, journal_path):
        with attached(RunJournal(journal_path)) as journal:
            assert current_journal() is journal
        assert current_journal() is None

    def test_nesting_is_a_stack(self, journal_path, tmp_path):
        outer = RunJournal(journal_path)
        inner = RunJournal(tmp_path / "inner.jsonl")
        with attached(outer):
            with attached(inner):
                assert current_journal() is inner
            assert current_journal() is outer
        assert current_journal() is None

    def test_detach_tolerates_unattached(self, journal_path):
        detach_journal(RunJournal(journal_path))  # no-op, no raise


class TestReader:
    def _sample_events(self):
        return [
            {"event": "run_start", "ts": 0.0, "command": "get_real"},
            {
                "event": "profile_done",
                "ts": 1.0,
                "profile": [0, 1],
                "labels": ["ddic", "random"],
                "players": [
                    {"group": 0, "mean": 9.0, "stderr": 0.5, "samples": 10},
                    {"group": 1, "mean": 3.0, "stderr": 0.2, "samples": 10},
                ],
                "duration_seconds": 0.75,
            },
            {
                "event": "equilibrium_found",
                "ts": 2.0,
                "kind": "pure",
                "labels": ["ddic", "random"],
                "probabilities": [1.0, 0.0],
                "regret": 0.0,
            },
            {
                "event": "run_end",
                "ts": 3.0,
                "status": "ok",
                "duration_seconds": 3.0,
            },
        ]

    def test_reconstruct_runs(self):
        runs = reconstruct_runs(self._sample_events())
        assert len(runs) == 1
        run = runs[0]
        assert run.command == "get_real"
        assert run.status == "ok"
        assert run.duration_seconds == 3.0
        assert len(run.profiles) == 1
        assert run.equilibrium["kind"] == "pure"

    def test_orphan_events_get_synthetic_run(self):
        # A bare estimate_payoff_table call journals profile events with no
        # surrounding run_start.
        events = [e for e in self._sample_events() if e["event"] != "run_start"]
        runs = reconstruct_runs(events)
        assert len(runs) == 1
        assert runs[0].command == "?"
        assert len(runs[0].profiles) == 1

    def test_summary_rows(self):
        rows = journal_summary_rows(self._sample_events())
        assert len(rows) == 2  # one per player
        assert rows[0]["profile"] == "ddic-random"
        assert rows[0]["group"] == "p1"
        assert rows[0]["mean"] == 9.0
        assert rows[1]["group"] == "p2"
        assert all(row["seconds"] == 0.75 for row in rows)

    def test_render_report(self):
        events = self._sample_events() + [
            {"event": "span", "name": "exec.job", "duration_seconds": 0.25},
            {"event": "span", "name": "getreal.run", "duration_seconds": 2.0},
            {"event": "span", "name": "exec.job", "duration_seconds": 0.5},
            {"event": "cache", "namespace": "selection", "op": "miss", "entries": 0},
            {"event": "cache", "namespace": "selection", "op": "hit", "entries": 1},
            {"event": "cache", "namespace": "blocking", "op": "miss", "entries": 0},
            {"event": "cache", "namespace": "selection", "op": "clear", "entries": 0},
        ]
        tables = dict(journal_report_tables(events))
        # One row per span name, slowest first.
        assert tables["spans"] == [
            {"span": "getreal.run", "count": 1, "total_seconds": 2.0},
            {"span": "exec.job", "count": 2, "total_seconds": 0.75},
        ]
        assert tables["cache"] == [
            {"namespace": "selection", "hits": 1, "misses": 1},
            {"namespace": "blocking", "hits": 0, "misses": 1},
        ]
        report = render_journal_report(events)
        assert "runs" in report
        assert "get_real" in report
        assert "ddic-random" in report
        assert "per-profile estimates" in report
        assert "\nspans\nspan         count  total_seconds\n" in report
        assert "\ncache\nnamespace  hits  misses\n" in report

    def test_tables_without_spans_or_cache_are_left_out(self):
        titles = [title for title, _ in journal_report_tables(self._sample_events())]
        assert titles == ["runs", "per-profile estimates (timing & variance)"]

    def test_render_empty(self):
        assert render_journal_report([]) == "(empty journal)"


class TestFixtureJournalReport:
    """The report of the journal a real ``get_real`` run writes.

    ``tests/journal_fixture.py`` records it: 2 groups, MGIC vs DDIC,
    ``rounds=4``, 2 batches of 3 jobs in all.  Each value asserted here
    travels through a key a writer emits and the reader looks up, so a
    rename on either side fails a test.
    """

    ROUNDS = 4

    @pytest.fixture
    def tables(self, run_journal):
        return dict(journal_report_tables(read_journal(run_journal)))

    def test_profile_rows(self, tables):
        rows = tables["per-profile estimates (timing & variance)"]
        assert len(rows) == 8  # 4 profiles x 2 groups
        for row in rows:
            assert math.isfinite(row["mean"]) and math.isfinite(row["stderr"])
            assert row["samples"] == self.ROUNDS
            assert row["seconds"] > 0

    def test_batch_rows(self, tables):
        rows = tables["execution batches"]
        assert len(rows) == 2
        assert sum(row["jobs"] for row in rows) == 3
        assert all(row["backend"] == "serial" and row["seconds"] > 0 for row in rows)

    def test_run_row(self, tables):
        [run] = tables["runs"]
        assert run["command"] == "get_real"
        assert run["status"] == "ok"
        assert run["equilibrium"] == "pure"
        assert run["profiles"] == 4

    def test_span_and_cache_rows(self, tables):
        spans = {row["span"]: row for row in tables["spans"]}
        assert {name: row["count"] for name, row in spans.items()} == {
            "getreal.run": 1,
            "exec.batch": 2,
            "exec.job": 3,
        }
        assert all(row["total_seconds"] > 0 for row in spans.values())
        assert tables["cache"] == [{"namespace": "selection", "hits": 0, "misses": 4}]

    def test_cli_prints_every_table(self, run_journal, capsys):
        assert main(["journal", str(run_journal)]) == 0
        out = capsys.readouterr().out
        for title in ("runs", "per-profile estimates", "execution batches", "spans", "cache"):
            assert f"\n{title}" in f"\n{out}"


class TestCliIntegration:
    @pytest.fixture
    def karate_file(self, tmp_path):
        path = tmp_path / "karate.txt"
        save_edge_list(karate_like_fixture(), path)
        return str(path)

    def test_getreal_writes_journal(self, karate_file, journal_path, capsys):
        code = main(
            [
                "getreal",
                karate_file,
                "--strategies",
                "ddic,random",
                "--k",
                "3",
                "--rounds",
                "5",
                "--profile-symmetry",
                "full",
                "--journal",
                str(journal_path),
            ]
        )
        assert code == 0
        events = read_journal(journal_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert "equilibrium_found" in kinds
        assert kinds[-1] == "run_end"
        # 2 strategies x 2 groups -> 4 profiles, one profile_done each.
        assert kinds.count("profile_done") == 4
        for done in (e for e in events if e["event"] == "profile_done"):
            assert {"mean", "stderr", "samples"} <= set(done["players"][0])
            assert done["duration_seconds"] >= 0.0
        # The journal must not leak into later pipeline calls.
        assert current_journal() is None

    def test_journal_subcommand_renders_report(
        self, karate_file, journal_path, capsys
    ):
        main(
            [
                "getreal",
                karate_file,
                "--strategies",
                "ddic,random",
                "--k",
                "2",
                "--rounds",
                "4",
                "--journal",
                str(journal_path),
            ]
        )
        capsys.readouterr()  # drop pipeline output
        assert main(["journal", str(journal_path)]) == 0
        out = capsys.readouterr().out
        assert "runs" in out
        assert "per-profile estimates" in out
        assert "ddic" in out and "random" in out

    def test_journal_subcommand_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["journal", str(tmp_path / "none.jsonl")])

    def test_non_getreal_commands_bracketed(self, karate_file, journal_path, capsys):
        code = main(
            [
                "seeds",
                karate_file,
                "--algorithm",
                "ddic",
                "--k",
                "3",
                "--journal",
                str(journal_path),
            ]
        )
        assert code == 0
        events = read_journal(journal_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert events[0]["command"] == "seeds"
        assert kinds[-1] == "run_end"
        assert events[-1]["status"] == "ok"


class TestInterleavedRuns:
    def _interleaved(self):
        # Two processes appending to one journal: their events interleave.
        return [
            {"event": "run_start", "ts": 0.0, "run_id": "r1", "command": "get_real"},
            {"event": "run_start", "ts": 0.1, "run_id": "r2", "command": "payoff"},
            {
                "event": "profile_done", "ts": 0.5, "run_id": "r2",
                "profile": [1, 1], "labels": ["a", "b"], "players": [],
                "duration_seconds": 0.2,
            },
            {
                "event": "profile_done", "ts": 0.6, "run_id": "r1",
                "profile": [0, 0], "labels": ["a", "b"], "players": [],
                "duration_seconds": 0.3,
            },
            {"event": "run_end", "ts": 1.0, "run_id": "r2", "status": "ok",
             "duration_seconds": 0.9},
            {"event": "equilibrium_found", "ts": 1.5, "run_id": "r1",
             "kind": "mixed", "labels": ["a", "b"],
             "probabilities": [0.5, 0.5], "regret": 0.01},
            {"event": "run_end", "ts": 2.0, "run_id": "r1", "status": "ok",
             "duration_seconds": 2.0},
        ]

    def test_events_route_to_their_run(self):
        runs = reconstruct_runs(self._interleaved())
        assert len(runs) == 2
        by_command = {run.command: run for run in runs}
        assert len(by_command["get_real"].profiles) == 1
        assert by_command["get_real"].profiles[0]["profile"] == [0, 0]
        assert by_command["get_real"].equilibrium["kind"] == "mixed"
        assert len(by_command["payoff"].profiles) == 1
        assert by_command["payoff"].duration_seconds == 0.9
        assert by_command["get_real"].duration_seconds == 2.0

    def test_unclosed_run_still_reported(self):
        events = [
            e for e in self._interleaved()
            if not (e["event"] == "run_end" and e.get("run_id") == "r1")
        ]
        runs = reconstruct_runs(events)
        commands = {run.command for run in runs}
        assert commands == {"get_real", "payoff"}

    def test_span_events_are_tolerated(self):
        events = self._interleaved()
        events.insert(
            2,
            {
                "event": "span", "ts": 0.2, "run_id": "r1",
                "name": "exec.batch", "duration_seconds": 0.1,
                "trace_id": "t", "span_id": "s", "parent_id": None,
            },
        )
        assert len(reconstruct_runs(events)) == 2


class TestTolerantReader:
    def test_strict_false_skips_truncated_trailing_line(self, journal_path):
        journal = RunJournal(journal_path)
        journal.run_start("get_real")
        journal.run_end(status="ok", duration_seconds=1.0)
        journal.close()
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "batch_done", "jobs": 4, "dur')  # crash mid-write
        with pytest.raises(JournalError):
            read_journal(journal_path)
        events = read_journal(journal_path, strict=False)
        assert [e["event"] for e in events] == ["run_start", "run_end"]

    def test_strict_false_skips_eventless_records(self, journal_path):
        journal_path.write_text(
            '{"event": "run_start", "command": "x"}\n{"not_an_event": 1}\n'
        )
        events = read_journal(journal_path, strict=False)
        assert len(events) == 1


class TestConcurrentEmit:
    def test_parallel_emitters_produce_intact_lines(self, journal_path):
        import threading

        journal = RunJournal(journal_path)
        per_thread, threads = 200, 8

        def emit(tid):
            for i in range(per_thread):
                journal.emit("cache", namespace=f"t{tid}", op="hit", entries=i)

        pool = [
            threading.Thread(target=emit, args=(t,)) for t in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        journal.close()
        # Every line parses (no torn writes) and every event arrived.
        events = read_journal(journal_path)
        assert len(events) == per_thread * threads
        seqs = [event["seq"] for event in events]
        assert sorted(seqs) == list(range(per_thread * threads))
