"""Hierarchical trace spans: causally-linked timed blocks across processes.

A span is the glue between the observability sinks: it debug-logs
entry/exit, times the block, and — when asked — appends a ``span`` event
to the active run journal::

    from repro.obs import span

    with span("payoff.table", profiles=9):
        ...

Every span carries **identity**: a ``trace_id`` shared by all spans of one
causal tree, its own ``span_id``, and the ``parent_id`` of the span that
was open when it started.  The current span is tracked on a
:mod:`contextvars` stack, so nesting works across ``async`` boundaries and
the execution engine can serialize the ambient context into each
:data:`~repro.exec.backends.JobPayload` — spans opened inside
process workers parent correctly under the submitting batch span (see
:func:`trace_scope`).

``repro obs trace <journal.jsonl>`` renders the journaled spans back into a
per-run tree with self-time vs child-time (:mod:`repro.obs.tracetree`).

Worker processes have no journal attached; :func:`collect_spans` redirects
journal-worthy span records into an in-memory list instead, which the
executor ships back with the job result and replays into the parent's
journal.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from collections.abc import Iterator, Mapping
from typing import Any

from repro.obs.journal import current_journal
from repro.obs.log import get_logger

_LOG = get_logger("obs.trace")


def new_id() -> str:
    """A fresh 64-bit hex identifier (not drawn from the seeded RNG streams)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The (trace, span) coordinates an in-flight span hands to its children.

    Serializable to a plain dict so it can ride a pickled job payload into
    a worker process and re-anchor the trace there.
    """

    trace_id: str
    span_id: str

    def as_dict(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: Mapping[str, str] | None) -> "TraceContext | None":
        if not payload:
            return None
        return cls(
            trace_id=str(payload["trace_id"]), span_id=str(payload["span_id"])
        )


#: Stack of open spans' contexts for the current execution context.
_SPAN_STACK: ContextVar[tuple[TraceContext, ...]] = ContextVar(
    "repro_obs_span_stack", default=()
)

#: When set, journal-worthy span records append here instead of the journal.
_COLLECTOR: ContextVar[list[dict[str, Any]] | None] = ContextVar(
    "repro_obs_span_collector", default=None
)


def current_trace_context() -> TraceContext | None:
    """The innermost open span's (trace_id, span_id), or ``None``."""
    stack = _SPAN_STACK.get()
    return stack[-1] if stack else None


@contextmanager
def trace_scope(context: TraceContext | Mapping[str, str] | None) -> Iterator[None]:
    """Anchor spans opened in this block under a foreign parent context.

    Used by the execution engine's worker entry point: the submitting
    process serializes :func:`current_trace_context` into the job payload,
    and the worker re-activates it here so the job's spans parent under the
    batch span even across a process boundary.  ``None`` is a no-op.
    """
    if context is not None and not isinstance(context, TraceContext):
        context = TraceContext.from_dict(context)
    if context is None:
        yield
        return
    token = _SPAN_STACK.set(_SPAN_STACK.get() + (context,))
    try:
        yield
    finally:
        _SPAN_STACK.reset(token)


@contextmanager
def collect_spans(into: list[dict[str, Any]] | None = None) -> Iterator[list[dict[str, Any]]]:
    """Redirect journal-worthy span records into a list for this block.

    Yields the collecting list.  While active, ``span(..., journal=True)``
    appends its event record here instead of emitting to the attached
    journal — the execution engine runs every job under a collector and
    replays the records into the parent-side journal, so journals look the
    same no matter which backend (or process) ran the span.
    """
    records: list[dict[str, Any]] = [] if into is None else into
    token = _COLLECTOR.set(records)
    try:
        yield records
    finally:
        _COLLECTOR.reset(token)


class Span:
    """Handle yielded by :func:`span`; ``elapsed`` is set on exit."""

    __slots__ = (
        "name",
        "fields",
        "elapsed",
        "trace_id",
        "span_id",
        "parent_id",
        "start_ts",
    )

    def __init__(
        self,
        name: str,
        fields: dict[str, Any],
        trace_id: str,
        span_id: str,
        parent_id: str | None,
    ):
        self.name = name
        self.fields = fields
        self.elapsed = 0.0
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ts = 0.0

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, span_id={self.span_id!r}, "
            f"elapsed={self.elapsed:.4f}s)"
        )


@contextmanager
def span(
    name: str, journal: bool = False, **fields: Any
) -> Iterator[Span]:
    """Time a block under *name*, parented under the enclosing span.

    Parameters
    ----------
    name:
        Dotted span name.
    journal:
        Also record a ``span`` event — to the active span collector if one
        is installed (worker side), else to the attached run journal.  The
        event carries ``trace_id``/``span_id``/``parent_id``/``start_ts``
        so ``repro obs trace`` can rebuild the tree.
    fields:
        Extra context logged at debug level and copied into the journal
        event.
    """
    parent = current_trace_context()
    handle = Span(
        name,
        fields,
        trace_id=parent.trace_id if parent else new_id(),
        span_id=new_id(),
        parent_id=parent.span_id if parent else None,
    )
    token = _SPAN_STACK.set(_SPAN_STACK.get() + (handle.context,))
    _LOG.debug("span %s started %s", name, fields or "")
    # Wall-clock start is a journaled product field (durations use the
    # perf_counter below); same decision as RunJournal.emit's "ts".
    handle.start_ts = time.time()
    started = time.perf_counter()
    try:
        yield handle
    finally:
        handle.elapsed = time.perf_counter() - started
        _SPAN_STACK.reset(token)
        _LOG.debug("span %s finished in %.4fs", name, handle.elapsed)
        if journal:
            record: dict[str, Any] = {
                "name": name,
                "duration_seconds": handle.elapsed,
                "trace_id": handle.trace_id,
                "span_id": handle.span_id,
                "parent_id": handle.parent_id,
                "start_ts": handle.start_ts,
                **fields,
            }
            collector = _COLLECTOR.get()
            if collector is not None:
                collector.append(record)
            else:
                sink = current_journal()
                if sink is not None:
                    sink.emit("span", **record)
