"""JSONL run journal: typed events from the GetReal pipeline, plus a reader.

A :class:`RunJournal` appends one JSON object per line to a file as a run
progresses.  The event vocabulary mirrors Algorithm 1's phases:

=====================  ==========================================================
event                  emitted by / payload highlights
=====================  ==========================================================
``run_start``          :func:`repro.core.getreal.get_real` (or the CLI) —
                       graph size, strategy labels, ``r``/``k``/``rounds``,
                       and the resolved backend/workers/symmetry/contracts
``profile_start``      :func:`repro.core.payoff.estimate_payoff_table`, first
                       time a profile is simulated
``profile_done``       same, once the profile's last seed draw finishes —
                       per-player ``mean``/``stderr``/``samples`` plus
                       ``duration_seconds``
``equilibrium_found``  :func:`repro.core.getreal.get_real` — ``kind``,
                       mixture probabilities, regret, NE-search seconds
``run_end``            pipeline exit — ``status`` (``ok``/``error``), duration
``span``               :func:`repro.obs.trace.span` with ``journal=True``
``cache``              :mod:`repro.cache` — ``namespace`` (``selection`` /
                       ``blocking``), ``op`` (``hit``/``miss``/``clear``),
                       ``entries``
=====================  ==========================================================

Every line also carries ``ts`` (epoch seconds), ``seq`` (per-journal
monotonic index) and ``run_id``.  The reader side —
:func:`read_journal`, :func:`reconstruct_runs`,
:func:`journal_summary_rows`, :func:`journal_report_tables`,
:func:`render_journal_report` — turns a journal file back into one report
(runs, per-profile timing/variance, execution batches, span totals, cache
hits and misses) rendered by :func:`repro.utils.tables.format_table`.

Estimation entry points look the journal up through a module-level stack
(:func:`attach_journal` / :func:`current_journal` / the :func:`attached`
context manager), so callers several layers up — the CLI, the benchmark
conftest — can observe a deep pipeline without threading a parameter
through every signature.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from typing import IO, Any

from repro.errors import JournalError
from repro.utils.tables import format_table

#: Known event types; unknown types are rejected at write time so typos in
#: instrumentation fail fast instead of corrupting downstream analysis.
EVENT_TYPES = (
    "run_start",
    "profile_start",
    "profile_done",
    "equilibrium_found",
    "run_end",
    "span",
    "note",
    "batch_start",
    "batch_done",
    "cache",
)


def _generate_run_id() -> str:
    return f"run-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"


class RunJournal:
    """Append-only JSONL event sink for one observability session.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "j.jsonl")
    >>> with RunJournal(path) as journal:
    ...     journal.emit("note", message="hello")
    >>> events = read_journal(path)
    >>> events[0]["event"], events[0]["message"]
    ('note', 'hello')
    """

    def __init__(self, path: str | Path, run_id: str | None = None) -> None:
        self.path = Path(path)
        self.run_id = run_id or _generate_run_id()
        self._handle: IO[str] | None = None
        self._seq = 0
        self._lock = Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_open(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append one typed event; returns the record written."""
        if event not in EVENT_TYPES:
            raise JournalError(
                f"unknown journal event {event!r}; known: {EVENT_TYPES}"
            )
        with self._lock:
            record: dict[str, Any] = {
                "event": event,
                # The timestamp IS the product here (journals record when
                # things happened); replay comparisons ignore the envelope.
                "ts": time.time(),
                "seq": self._seq,
                "run_id": self.run_id,
            }
            record.update(fields)
            handle = self._ensure_open()
            handle.write(json.dumps(record, default=str) + "\n")
            handle.flush()
            self._seq += 1
        return record

    # Typed helpers keep call sites short and the schema greppable.

    def run_start(self, command: str, **params: Any) -> None:
        self.emit("run_start", command=command, **params)

    def profile_start(
        self, profile: Sequence[int], labels: Sequence[str]
    ) -> None:
        self.emit(
            "profile_start", profile=list(profile), labels=list(labels)
        )

    def profile_done(
        self,
        profile: Sequence[int],
        labels: Sequence[str],
        players: Sequence[Mapping[str, Any]],
        duration_seconds: float,
    ) -> None:
        self.emit(
            "profile_done",
            profile=list(profile),
            labels=list(labels),
            players=[dict(p) for p in players],
            duration_seconds=float(duration_seconds),
        )

    def batch_start(
        self,
        batch_id: int,
        jobs: int,
        backend: str,
        workers: int,
        payload_bytes: int | None = None,
    ) -> None:
        """A simulation batch was submitted to an execution backend.

        ``payload_bytes`` is the summed pickled size of the batch's job
        payloads; it is recorded only by backends that serialize jobs
        (process), so its absence means jobs were passed by reference.
        """
        self.emit(
            "batch_start",
            batch_id=int(batch_id),
            jobs=int(jobs),
            backend=backend,
            workers=int(workers),
            **(
                {"payload_bytes": int(payload_bytes)}
                if payload_bytes is not None
                else {}
            ),
        )

    def batch_done(
        self,
        batch_id: int,
        jobs: int,
        backend: str,
        workers: int,
        duration_seconds: float,
    ) -> None:
        """Every job of a simulation batch completed."""
        self.emit(
            "batch_done",
            batch_id=int(batch_id),
            jobs=int(jobs),
            backend=backend,
            workers=int(workers),
            duration_seconds=float(duration_seconds),
        )

    def equilibrium_found(
        self,
        kind: str,
        probabilities: Sequence[float],
        labels: Sequence[str],
        regret: float,
        solve_seconds: float,
    ) -> None:
        self.emit(
            "equilibrium_found",
            kind=kind,
            probabilities=[float(p) for p in probabilities],
            labels=list(labels),
            regret=float(regret),
            solve_seconds=float(solve_seconds),
        )

    def cache_event(self, namespace: str, op: str, entries: int) -> None:
        """A work-sharing cache event (``op`` is ``hit`` or ``clear``)."""
        self.emit("cache", namespace=namespace, op=op, entries=int(entries))

    def run_end(
        self,
        status: str = "ok",
        duration_seconds: float | None = None,
        error: str | None = None,
    ) -> None:
        fields: dict[str, Any] = {"status": status}
        if duration_seconds is not None:
            fields["duration_seconds"] = float(duration_seconds)
        if error is not None:
            fields["error"] = error
        self.emit("run_end", **fields)


# ---------------------------------------------------------------------- #
# active-journal stack
# ---------------------------------------------------------------------- #

_ACTIVE: list[RunJournal] = []


def attach_journal(journal: RunJournal) -> RunJournal:
    """Make *journal* the journal returned by :func:`current_journal`."""
    _ACTIVE.append(journal)
    return journal


def detach_journal(journal: RunJournal | None = None) -> None:
    """Pop the active journal (a specific one, or the top of the stack)."""
    if not _ACTIVE:
        return
    if journal is None:
        _ACTIVE.pop()
    elif journal in _ACTIVE:
        _ACTIVE.remove(journal)


def current_journal() -> RunJournal | None:
    """The innermost attached journal, or None."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def attached(journal: RunJournal) -> Iterator[RunJournal]:
    """Scope *journal* as the active journal for a ``with`` block."""
    attach_journal(journal)
    try:
        yield journal
    finally:
        detach_journal(journal)


# ---------------------------------------------------------------------- #
# reading / reconstruction
# ---------------------------------------------------------------------- #


def read_journal(path: str | Path, strict: bool = True) -> list[dict[str, Any]]:
    """Parse a JSONL journal file into a list of event dicts.

    With ``strict=False``, malformed lines — interleaved half-writes from a
    crashed process, or a truncated trailing line from a live writer — are
    skipped instead of raising, which is what journal-consuming tools
    (``repro obs trace``) want when pointed at a journal that is still
    being written.
    """
    path = Path(path)
    if not path.exists():
        raise JournalError(f"journal file not found: {path}")
    events: list[dict[str, Any]] = []
    with open(path, encoding="utf-8", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise JournalError(
                        f"{path}:{lineno}: not valid JSON ({exc})"
                    ) from exc
                continue
            if not isinstance(record, dict) or "event" not in record:
                if strict:
                    raise JournalError(
                        f"{path}:{lineno}: journal records need an 'event' field"
                    )
                continue
            events.append(record)
    return events


@dataclass
class RunRecord:
    """One reconstructed pipeline run (a ``run_start`` .. ``run_end`` span)."""

    index: int
    start: dict[str, Any] | None = None
    end: dict[str, Any] | None = None
    profiles: list[dict[str, Any]] = field(default_factory=list)
    equilibrium: dict[str, Any] | None = None

    @property
    def command(self) -> str:
        return str(self.start.get("command", "?")) if self.start else "?"

    @property
    def status(self) -> str:
        if self.end is None:
            return "incomplete"
        return str(self.end.get("status", "?"))

    @property
    def duration_seconds(self) -> float | None:
        if self.end and "duration_seconds" in self.end:
            return float(self.end["duration_seconds"])
        if self.start and self.end:
            return float(self.end["ts"]) - float(self.start["ts"])
        return None


def reconstruct_runs(events: Sequence[Mapping[str, Any]]) -> list[RunRecord]:
    """Group a flat event stream into :class:`RunRecord` objects.

    Events arriving before any ``run_start`` (e.g. a bare
    ``estimate_payoff_table`` call with a journal attached but no
    surrounding ``get_real``) are collected into a synthetic run 0.

    Runs are matched by ``run_id``, so journals with **interleaved** runs —
    several processes appending to one file — reconstruct correctly:
    each event routes to the open run carrying its ``run_id``, falling back
    to the most recently opened run for id-less events.  Span events (which
    belong to the trace tree, not the run ledger) and unknown event types
    are tolerated and skipped.
    """
    runs: list[RunRecord] = []
    open_runs: dict[str, RunRecord] = {}
    last_opened: RunRecord | None = None

    def route(event: Mapping[str, Any]) -> RunRecord:
        nonlocal last_opened
        run_id = event.get("run_id")
        if run_id is not None and str(run_id) in open_runs:
            return open_runs[str(run_id)]
        if last_opened is not None and last_opened.end is None:
            return last_opened
        record = RunRecord(index=len(runs))
        runs.append(record)
        if run_id is not None:
            open_runs[str(run_id)] = record
        last_opened = record
        return record

    for event in events:
        kind = event.get("event")
        if kind == "run_start":
            record = RunRecord(index=len(runs), start=dict(event))
            runs.append(record)
            run_id = event.get("run_id")
            if run_id is not None:
                open_runs[str(run_id)] = record
            last_opened = record
            continue
        if kind == "profile_done":
            route(event).profiles.append(dict(event))
        elif kind == "equilibrium_found":
            route(event).equilibrium = dict(event)
        elif kind == "run_end":
            record = route(event)
            record.end = dict(event)
            run_id = event.get("run_id")
            if run_id is not None:
                open_runs.pop(str(run_id), None)
    return runs


def journal_summary_rows(
    events: Sequence[Mapping[str, Any]],
) -> list[dict[str, object]]:
    """Per-profile timing/variance rows across every run in *events*."""
    rows: list[dict[str, object]] = []
    for run in reconstruct_runs(events):
        for done in run.profiles:
            labels = done.get("labels") or [
                str(a) for a in done.get("profile", [])
            ]
            duration = float(done.get("duration_seconds", 0.0))
            for player in done.get("players", []):
                rows.append(
                    {
                        "run": run.index,
                        "profile": "-".join(labels),
                        "group": f"p{int(player.get('group', 0)) + 1}",
                        "mean": float(player.get("mean", float("nan"))),
                        "stderr": float(player.get("stderr", float("nan"))),
                        "samples": int(player.get("samples", 0)),
                        "seconds": duration,
                    }
                )
    return rows


def journal_report_tables(
    events: Sequence[Mapping[str, Any]],
) -> list[tuple[str, list[dict[str, object]]]]:
    """The ``repro journal`` report as ``(title, rows)`` pairs, in print order.

    Tables: ``runs``, per-profile estimates, ``execution batches``,
    ``spans`` (count and total seconds per span name, slowest first) and
    ``cache`` (hits and misses per memo namespace).  A table whose events
    the journal lacks is left out.
    """
    runs = reconstruct_runs(events)
    if not runs:
        return []
    tables: list[tuple[str, list[dict[str, object]]]] = []

    run_rows: list[dict[str, object]] = []
    for run in runs:
        eq = run.equilibrium or {}
        mixture = ""
        if eq:
            mixture = ", ".join(
                f"{label}:{prob:.3f}"
                for label, prob in zip(
                    eq.get("labels", []), eq.get("probabilities", [])
                )
            )
        run_rows.append(
            {
                "run": run.index,
                "command": run.command,
                "status": run.status,
                "profiles": len(run.profiles),
                "equilibrium": eq.get("kind", ""),
                "mixture": mixture,
                "regret": float(eq["regret"]) if "regret" in eq else "",
                "seconds": (
                    round(run.duration_seconds, 4)
                    if run.duration_seconds is not None
                    else ""
                ),
            }
        )
    tables.append(("runs", run_rows))

    profile_rows = journal_summary_rows(events)
    if profile_rows:
        total = sum(
            float(e.get("duration_seconds", 0.0))
            for e in events
            if e.get("event") == "profile_done"
        ) or 1.0
        for row in profile_rows:
            row["time_share"] = float(row["seconds"]) / total
        tables.append(("per-profile estimates (timing & variance)", profile_rows))

    batch_rows: list[dict[str, object]] = [
        {
            "batch": int(b.get("batch_id", -1)),
            "backend": str(b.get("backend", "?")),
            "workers": int(b.get("workers", 1)),
            "jobs": int(b.get("jobs", 0)),
            "seconds": float(b.get("duration_seconds", 0.0)),
        }
        for b in events
        if b.get("event") == "batch_done"
    ]
    if batch_rows:
        tables.append(("execution batches", batch_rows))

    span_counts: Counter[str] = Counter()
    span_seconds: dict[str, float] = {}
    cache_ops: dict[str, Counter[str]] = {}
    for e in events:
        if e.get("event") == "span":
            name = str(e.get("name", "?"))
            span_counts[name] += 1
            seconds = float(e.get("duration_seconds", 0.0))
            span_seconds[name] = span_seconds.get(name, 0.0) + seconds
        elif e.get("event") == "cache":
            namespace = str(e.get("namespace", "?"))
            cache_ops.setdefault(namespace, Counter())[str(e.get("op", "?"))] += 1
    if span_counts:
        tables.append(
            (
                "spans",
                [
                    {"span": name, "count": span_counts[name], "total_seconds": seconds}
                    for name, seconds in sorted(
                        span_seconds.items(), key=lambda item: -item[1]
                    )
                ],
            )
        )
    if cache_ops:
        tables.append(
            (
                "cache",
                [
                    {"namespace": namespace, "hits": ops["hit"], "misses": ops["miss"]}
                    for namespace, ops in cache_ops.items()
                ],
            )
        )
    return tables


def render_journal_report(events: Sequence[Mapping[str, Any]]) -> str:
    """Human-readable report for ``python -m repro journal <file.jsonl>``."""
    tables = journal_report_tables(events)
    if not tables:
        return "(empty journal)"
    return "\n\n".join(format_table(rows, title=title) for title, rows in tables)
