"""Process-wide metrics registry: additive counters and histograms.

The simulation stack counts its work here (simulations run, nodes
activated, jobs completed, seconds jobs waited in the queue).  Every
instrument is a sum, so the design stays small:

* **cheap, thread-safe increments** — every instrument shares its
  registry's lock (one uncontended lock acquire per update; no string
  formatting, no I/O), so callers' own threads can never drop increments;
* **stable handles** — modules cache ``counter("cascade.simulations")`` at
  import time; :meth:`MetricsRegistry.reset` zeroes instruments *in place*
  so cached handles stay live across resets;
* **one snapshot call** — :func:`snapshot` returns
  ``{"counters": {name: value}, "histograms": {name: {"count", "total"}}}``,
  a plain nested dict ready for JSON or assertions in tests;
* **mergeable state** — :func:`delta_state` subtracts two snapshots name
  by name and :meth:`MetricsRegistry.merge_delta` adds a delta back, which
  lets the execution engine fold a worker process's metric activity into
  the parent registry exactly (see ``docs/observability.md``).

Instrument names are dotted paths (``layer.subject``), e.g.
``cascade.simulations`` or ``exec.queue_wait_seconds``.
"""

from __future__ import annotations

import threading
from typing import Any

#: Snapshot/delta type: what :meth:`MetricsRegistry.snapshot` returns and
#: what ``delta_state`` / ``merge_delta`` consume.  Plain nested dicts of
#: numbers so they pickle cheaply across the process-backend boundary.
MetricsState = dict[str, dict[str, Any]]


class Counter:
    """Monotonically increasing count (resettable to zero)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.RLock | None = None):
        self.name = name
        self.value: int | float = 0
        self._lock = lock if lock is not None else threading.RLock()

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """Count and sum of observed values (e.g. the seconds of every job)."""

    __slots__ = ("name", "count", "total", "_lock")

    def __init__(self, name: str, lock: threading.RLock | None = None):
        self.name = name
        self.count = 0
        self.total = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += float(value)

    def add(self, count: int, total: float) -> None:
        """Fold in *count* observations summing to *total*."""
        with self._lock:
            self.count += int(count)
            self.total += float(total)

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, total={self.total:.4g})"


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    One re-entrant lock per registry guards instrument creation *and* every
    update on the instruments it hands out.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter(name, self._lock))

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(
                    name, Histogram(name, self._lock)
                )

    def snapshot(self) -> MetricsState:
        """Plain-dict view of every instrument (JSON ready, picklable)."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "histograms": {
                    n: {"count": h.count, "total": h.total}
                    for n, h in sorted(self._histograms.items())
                },
            }

    def merge_delta(self, delta: MetricsState) -> None:
        """Add a :func:`delta_state` result into this registry, name by name."""
        for name, amount in delta.get("counters", {}).items():
            self.counter(name).inc(amount)
        for name, payload in delta.get("histograms", {}).items():
            self.histogram(name).add(payload["count"], payload["total"])

    def reset(self) -> None:
        """Zero every instrument **in place** (cached handles stay valid)."""
        with self._lock:
            for ctr in self._counters.values():
                ctr.reset()
            for hist in self._histograms.values():
                hist.reset()


def delta_state(before: MetricsState, after: MetricsState) -> MetricsState:
    """The metric activity between two :meth:`MetricsRegistry.snapshot` calls.

    Sparse: only counters that moved and histograms that gained
    observations appear.  The result feeds
    :meth:`MetricsRegistry.merge_delta` in another process.
    """
    counters: dict[str, Any] = {}
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        moved = value - before_counters.get(name, 0)
        if moved:
            counters[name] = moved
    histograms: dict[str, Any] = {}
    before_hists = before.get("histograms", {})
    for name, payload in after.get("histograms", {}).items():
        prior = before_hists.get(name, {"count": 0, "total": 0.0})
        count = payload["count"] - prior["count"]
        if count > 0:
            histograms[name] = {
                "count": count,
                "total": payload["total"] - prior["total"],
            }
    return {"counters": counters, "histograms": histograms}


#: The process-wide default registry used by the simulation stack.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT


def counter(name: str) -> Counter:
    """Get-or-create a counter in the default registry."""
    return _DEFAULT.counter(name)


def histogram(name: str) -> Histogram:
    """Get-or-create a histogram in the default registry."""
    return _DEFAULT.histogram(name)


def snapshot() -> MetricsState:
    """Snapshot of the default registry."""
    return _DEFAULT.snapshot()


def reset() -> None:
    """Zero every instrument in the default registry."""
    _DEFAULT.reset()
