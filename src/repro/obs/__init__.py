"""Observability layer: structured logging, metrics, trace spans, run journal.

Three independent sinks with one import surface:

* :mod:`repro.obs.log` — per-module loggers, silent until
  :func:`configure_logging` attaches a handler (text or JSONL);
* :mod:`repro.obs.metrics` — process-wide counters and count/total histograms with
  :func:`metrics_snapshot` / :func:`metrics_reset`;
* :mod:`repro.obs.journal` — typed JSONL run journal written by
  ``estimate_payoff_table`` / ``get_real`` and read back into one report
  (runs, per-profile timing/variance, batches, spans, cache; ``repro journal``);
* :mod:`repro.obs.trace` — hierarchical :func:`span` blocks feeding all of
  the above; spans carry ``trace_id``/``span_id``/``parent_id`` and the
  context crosses execution backends (:func:`trace_scope`);
* :mod:`repro.obs.tracetree` — reassemble journaled spans into per-trace
  waterfalls (``repro obs trace``).
"""

from repro.obs.log import (
    JsonLineFormatter,
    configure_logging,
    get_logger,
    logging_configured,
    reset_logging,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsState,
    counter,
    delta_state,
    get_registry,
    histogram,
)
from repro.obs.metrics import reset as metrics_reset
from repro.obs.metrics import snapshot as metrics_snapshot
from repro.obs.journal import (
    EVENT_TYPES,
    RunJournal,
    RunRecord,
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
from repro.obs.trace import (
    Span,
    TraceContext,
    collect_spans,
    current_trace_context,
    span,
    trace_scope,
)
from repro.obs.tracetree import SpanNode, Trace, build_traces, render_trace_tree

__all__ = [
    # log
    "configure_logging",
    "get_logger",
    "logging_configured",
    "reset_logging",
    "JsonLineFormatter",
    # metrics
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MetricsState",
    "counter",
    "delta_state",
    "histogram",
    "get_registry",
    "metrics_snapshot",
    "metrics_reset",
    # journal
    "EVENT_TYPES",
    "RunJournal",
    "RunRecord",
    "attach_journal",
    "detach_journal",
    "attached",
    "current_journal",
    "read_journal",
    "reconstruct_runs",
    "journal_summary_rows",
    "journal_report_tables",
    "render_journal_report",
    # trace
    "Span",
    "TraceContext",
    "span",
    "trace_scope",
    "collect_spans",
    "current_trace_context",
    # trace tree
    "SpanNode",
    "Trace",
    "build_traces",
    "render_trace_tree",
]
