"""Tests for hierarchical tracing: span identity, scopes, and tree rendering."""

import json

import pytest

from repro.obs.journal import RunJournal, attach_journal, detach_journal
from repro.obs.trace import (
    TraceContext,
    collect_spans,
    current_trace_context,
    new_id,
    span,
    trace_scope,
)
from repro.obs.tracetree import build_traces, render_trace_tree


class TestSpanIdentity:
    def test_root_span_mints_fresh_trace(self):
        with span("outer") as outer:
            assert outer.trace_id
            assert outer.span_id
            assert outer.parent_id is None
            assert outer.trace_id != outer.span_id

    def test_nested_span_inherits_trace_and_parents(self):
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert inner.span_id != outer.span_id

    def test_sibling_spans_share_trace_but_not_ids(self):
        with span("outer") as outer:
            with span("a") as a:
                pass
            with span("b") as b:
                pass
        assert a.trace_id == b.trace_id == outer.trace_id
        assert a.parent_id == b.parent_id == outer.span_id
        assert a.span_id != b.span_id

    def test_stack_unwinds_after_exit(self):
        assert current_trace_context() is None
        with span("outer") as outer:
            assert current_trace_context() == outer.context
        assert current_trace_context() is None

    def test_stack_unwinds_on_exception(self):
        with pytest.raises(RuntimeError):
            with span("outer"):
                raise RuntimeError("boom")
        assert current_trace_context() is None

    def test_new_ids_are_unique(self):
        ids = {new_id() for _ in range(256)}
        assert len(ids) == 256


class TestTraceContext:
    def test_dict_roundtrip(self):
        ctx = TraceContext(trace_id="t1", span_id="s1")
        assert TraceContext.from_dict(ctx.as_dict()) == ctx
        assert TraceContext.from_dict(None) is None
        assert TraceContext.from_dict({}) is None

    def test_trace_scope_anchors_foreign_parent(self):
        ctx = TraceContext(trace_id="t1", span_id="s1")
        with trace_scope(ctx):
            with span("child") as child:
                assert child.trace_id == "t1"
                assert child.parent_id == "s1"
        assert current_trace_context() is None

    def test_trace_scope_accepts_serialized_dict(self):
        with trace_scope({"trace_id": "t2", "span_id": "s2"}):
            assert current_trace_context() == TraceContext("t2", "s2")

    def test_trace_scope_none_is_noop(self):
        with trace_scope(None):
            with span("orphan") as s:
                assert s.parent_id is None


class TestCollector:
    def test_collector_captures_instead_of_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        attach_journal(journal)
        try:
            with collect_spans() as records:
                with span("job", journal=True, index=3):
                    pass
            journal.close()
        finally:
            detach_journal(journal)
        assert len(records) == 1
        assert records[0]["name"] == "job"
        assert records[0]["index"] == 3
        assert records[0]["trace_id"] and records[0]["span_id"]
        # Nothing reached the journal file while the collector was active
        # (the journal creates its file lazily, so it may not even exist).
        lines = (
            [
                json.loads(line)
                for line in path.read_text().splitlines()
                if line.strip()
            ]
            if path.exists()
            else []
        )
        assert all(event["event"] != "span" for event in lines)

    def test_journal_span_emits_event_without_collector(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        attach_journal(journal)
        try:
            with span("pipeline", journal=True):
                pass
            journal.close()
        finally:
            detach_journal(journal)
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        spans = [e for e in events if e["event"] == "span"]
        assert len(spans) == 1
        assert spans[0]["name"] == "pipeline"
        assert spans[0]["parent_id"] is None
        assert spans[0]["duration_seconds"] >= 0.0

    def test_non_journal_span_never_collected(self):
        with collect_spans() as records:
            with span("quiet"):
                pass
        assert records == []


def _span_event(name, trace_id, span_id, parent_id, start_ts, duration):
    return {
        "event": "span",
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "start_ts": start_ts,
        "duration_seconds": duration,
    }


class TestTraceTree:
    def test_builds_parented_tree(self):
        events = [
            _span_event("root", "t", "r", None, 0.0, 10.0),
            _span_event("child-b", "t", "b", "r", 2.0, 3.0),
            _span_event("child-a", "t", "a", "r", 1.0, 4.0),
        ]
        (trace,) = build_traces(events)
        assert trace.span_count == 3
        (root,) = trace.roots
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert root.self_time == pytest.approx(3.0)  # 10 - (4 + 3)

    def test_orphan_spans_become_flagged_roots(self):
        events = [
            _span_event("lost", "t", "x", "never-seen", 0.0, 1.0),
        ]
        (trace,) = build_traces(events)
        (root,) = trace.roots
        assert root.orphaned
        assert "orphan" in render_trace_tree(events)

    def test_idless_legacy_spans_grouped_as_untraced(self):
        events = [
            {"event": "span", "name": "old", "duration_seconds": 1.0},
            {"event": "span", "name": "older", "duration_seconds": 2.0},
        ]
        (trace,) = build_traces(events)
        assert trace.trace_id == "untraced"
        assert len(trace.roots) == 2

    def test_non_span_events_ignored(self):
        events = [
            {"event": "run_start", "command": "x"},
            _span_event("only", "t", "s", None, 0.0, 1.0),
        ]
        (trace,) = build_traces(events)
        assert trace.span_count == 1

    def test_child_elision_past_max_children(self):
        events = [_span_event("root", "t", "r", None, 0.0, 10.0)]
        events += [
            _span_event(f"job{i}", "t", f"c{i}", "r", float(i), 0.5)
            for i in range(6)
        ]
        text = render_trace_tree(events, max_children=4)
        assert "2 more child span(s)" in text

    def test_empty_journal_renders_placeholder(self):
        assert "no span events" in render_trace_tree([])


class TestCrossContextParenting:
    def test_worker_style_replay_matches_inline_tree(self):
        # Simulate the executor's protocol by hand: capture the batch
        # context, open job spans under trace_scope + collector (as a
        # worker would), then reassemble — the tree must parent the job
        # spans under the batch span.
        with collect_spans() as all_records:
            with span("exec.batch", journal=True) as batch:
                ctx = batch.context.as_dict()
        with trace_scope(ctx), collect_spans(all_records):
            with span("exec.job", journal=True, index=0):
                pass
        events = [{"event": "span", **record} for record in all_records]
        (trace,) = build_traces(events)
        (root,) = trace.roots
        assert root.name == "exec.batch"
        assert [c.name for c in root.children] == ["exec.job"]
