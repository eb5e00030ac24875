"""Bounded memo stores with metrics and journal events.

A :class:`Memo` is a thread-safe FIFO-bounded mapping from frozen keys
(:mod:`repro.cache.keys`) to computed values.  Shared module-level instances
back the selection and blocking caches (see :mod:`repro.cache`); every
lookup lands in the ``cache.hits`` / ``cache.misses`` counters, evictions in
``cache.evictions``, and the approximate resident size of all memos in the
``cache.bytes`` gauge.  Hits, misses, and clears are journaled as ``cache``
events when a run journal is attached (``repro journal`` tabulates hits
and misses per namespace from that stream).

Caching is always on: hits restore the exact post-computation RNG state,
so a warm cache produces bit-identical results to a cold one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.obs.journal import current_journal
from repro.obs.metrics import counter, gauge

__all__ = ["Memo"]

_HITS = counter("cache.hits")
_MISSES = counter("cache.misses")
_EVICTIONS = counter("cache.evictions")
_BYTES = gauge("cache.bytes")

_ALL_MEMOS: list[Memo] = []
_MEMOS_LOCK = threading.Lock()


def _update_bytes_gauge() -> None:
    with _MEMOS_LOCK:
        total = sum(memo.nbytes for memo in _ALL_MEMOS)
    _BYTES.set(float(total))


class Memo:
    """Thread-safe FIFO-bounded key/value store with cache telemetry."""

    def __init__(self, namespace: str, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"memo capacity must be positive, got {capacity}")
        self.namespace = namespace
        self.capacity = capacity
        self._entries: OrderedDict[Any, tuple[Any, int]] = OrderedDict()
        self._nbytes = 0
        self._lock = threading.Lock()
        with _MEMOS_LOCK:
            _ALL_MEMOS.append(self)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes, as reported by callers at ``put``."""
        return self._nbytes

    def get(self, key: Any) -> Any | None:
        """Return the stored value or ``None``; counts a hit or a miss.

        Stored values are never ``None`` by construction (callers store
        result tuples), so ``None`` unambiguously means a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            entries = len(self._entries)
        sink = current_journal()
        if entry is None:
            _MISSES.inc()
            if sink is not None:
                sink.cache_event(self.namespace, "miss", entries)
            return None
        _HITS.inc()
        if sink is not None:
            sink.cache_event(self.namespace, "hit", entries)
        return entry[0]

    def put(self, key: Any, value: Any, nbytes: int = 0) -> None:
        """Store ``value``, evicting oldest entries beyond the capacity."""
        evicted = 0
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._nbytes -= previous[1]
            self._entries[key] = (value, int(nbytes))
            self._nbytes += int(nbytes)
            while len(self._entries) > self.capacity:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._nbytes -= dropped
                evicted += 1
        if evicted:
            _EVICTIONS.inc(evicted)
        _update_bytes_gauge()

    def clear(self) -> None:
        """Drop every entry and journal the clear."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
        _update_bytes_gauge()
        sink = current_journal()
        if sink is not None:
            sink.cache_event(self.namespace, "clear", 0)
