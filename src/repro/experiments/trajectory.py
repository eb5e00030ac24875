"""Shared, atomic, schema-validated store for ``BENCH_*.json`` trajectories.

Every benchmark that tracks a perf curve run-over-run appends one entry per
run to a repo-root ``BENCH_<name>.json`` file.  Historically each bench
carried its own copy-pasted ``_append_trajectory`` helper that did
read → mutate → ``write_text`` — an interrupted or concurrent run could
truncate the file and silently destroy the whole recorded history.  This
module is the single replacement:

* **atomic writes** — the updated history is serialized to a temp file in
  the same directory, fsynced, and moved into place with :func:`os.replace`
  (atomic on POSIX), so readers never observe a half-written file and a
  crash mid-append leaves the previous history intact;
* **schema validation** — entries must be JSON objects with a non-empty
  ``timestamp`` string and strictly JSON-serializable values (no ``NaN`` /
  ``Infinity``, which standard parsers reject), so a malformed entry fails
  fast at append time instead of corrupting downstream gates;
* **corruption recovery** — a file that no longer parses (for example the
  tail of a pre-fix truncated write) is quarantined aside as
  ``<name>.corrupt`` rather than blocking future appends, and the loss is
  logged instead of silently overwritten.

The regression gate (:mod:`repro.experiments.gate`) and the orchestrator
(:mod:`repro.experiments.orchestrator`) read and append exclusively through
this store.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from collections.abc import Mapping
from typing import Any

from repro.errors import TrajectoryError
from repro.obs.log import get_logger

_LOG = get_logger("experiments.trajectory")

#: Fields every trajectory entry must carry.
REQUIRED_FIELDS = ("timestamp",)

#: Suffix appended to a corrupt trajectory file when it is quarantined.
CORRUPT_SUFFIX = ".corrupt"


def validate_entry(entry: object) -> dict[str, Any]:
    """Validate one trajectory entry; returns it as a plain dict.

    Raises :class:`TrajectoryError` unless *entry* is a JSON object with a
    non-empty string ``timestamp`` and strictly JSON-serializable values.
    """
    if not isinstance(entry, Mapping):
        raise TrajectoryError(
            "trajectory entries must be JSON objects, got "
            f"{type(entry).__name__}"
        )
    record = dict(entry)
    for name in REQUIRED_FIELDS:
        if name not in record:
            raise TrajectoryError(
                f"trajectory entry is missing required field {name!r}"
            )
    timestamp = record["timestamp"]
    if not isinstance(timestamp, str) or not timestamp.strip():
        raise TrajectoryError(
            f"trajectory 'timestamp' must be a non-empty string, got {timestamp!r}"
        )
    try:
        # allow_nan=False keeps the file standard JSON: NaN/Infinity would
        # round-trip through Python's json but break strict parsers (and
        # any arithmetic the gate does on the values).
        json.dumps(record, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise TrajectoryError(
            f"trajectory entry is not JSON-serializable: {exc}"
        ) from exc
    return record


class TrajectoryStore:
    """Atomic append-only history of benchmark results at *path*.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "BENCH_demo.json")
    >>> store = TrajectoryStore(path)
    >>> _ = store.append({"timestamp": "2026-01-01T00:00:00+00:00", "speedup": 2.0})
    >>> [e["speedup"] for e in store.read()]
    [2.0]
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def read(self) -> list[dict[str, Any]]:
        """The full validated history; ``[]`` when the file does not exist.

        Raises :class:`TrajectoryError` when the file exists but is corrupt
        (unparseable JSON, not a JSON array, or entries failing the schema).
        """
        if not self.path.exists():
            return []
        text = self.path.read_text(encoding="utf-8")
        if not text.strip():
            return []
        try:
            history = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TrajectoryError(
                f"{self.path}: corrupt trajectory file ({exc})"
            ) from exc
        if not isinstance(history, list):
            raise TrajectoryError(
                f"{self.path}: trajectory must be a JSON array, got "
                f"{type(history).__name__}"
            )
        try:
            return [validate_entry(entry) for entry in history]
        except TrajectoryError as exc:
            raise TrajectoryError(f"{self.path}: {exc}") from exc

    def recover(self) -> list[dict[str, Any]]:
        """Like :meth:`read`, but quarantine a corrupt file instead of raising.

        The unreadable file is renamed to ``<name>.corrupt`` (clobbering any
        previous quarantine) so the evidence survives for inspection while
        appends can start a fresh history.
        """
        try:
            return self.read()
        except TrajectoryError as exc:
            quarantine = self.path.with_name(self.path.name + CORRUPT_SUFFIX)
            os.replace(self.path, quarantine)
            _LOG.warning(
                "quarantined corrupt trajectory %s -> %s (%s)",
                self.path,
                quarantine,
                exc,
            )
            return []

    def last(self) -> dict[str, Any] | None:
        """The most recent entry, or ``None`` for an empty/missing store."""
        history = self.read()
        return history[-1] if history else None

    def __len__(self) -> int:
        return len(self.read())

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    def append(
        self, entry: Mapping[str, Any], recover: bool = True
    ) -> dict[str, Any]:
        """Validate *entry*, append it to the history, write atomically.

        With ``recover=True`` (the default) a corrupt existing file is
        quarantined (see :meth:`recover`) and the entry starts a fresh
        history; with ``recover=False`` corruption raises instead.  Returns
        the validated entry as written.
        """
        record = validate_entry(entry)
        history = self.recover() if recover else self.read()
        history.append(record)
        self._write(history)
        return record

    def _write(self, history: list[dict[str, Any]]) -> None:
        """Serialize *history* to a same-directory temp file, then replace.

        ``os.replace`` is atomic on POSIX, so a reader (or a crash) at any
        point observes either the old complete file or the new complete
        file — never a truncated hybrid.
        """
        payload = json.dumps(history, indent=2, allow_nan=False) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent,
            prefix=self.path.name + ".",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise


def append_trajectory(
    path: str | Path, entry: Mapping[str, Any]
) -> dict[str, Any]:
    """One-shot convenience: ``TrajectoryStore(path).append(entry)``."""
    return TrajectoryStore(path).append(entry)
