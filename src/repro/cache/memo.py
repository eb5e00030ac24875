"""Bounded memo stores with metrics and journal events.

A :class:`Memo` is a thread-safe FIFO-bounded mapping from frozen keys
(:mod:`repro.cache.keys`) to computed values.  Shared module-level instances
back the selection and blocking caches (see :mod:`repro.cache`); every
lookup lands in the ``cache.hits`` / ``cache.misses`` counters.  Hits,
misses, and clears are journaled as ``cache`` events when a run journal is
attached (``repro journal`` tabulates hits and misses per namespace from
that stream).

Caching is always on: hits restore the exact post-computation RNG state,
so a warm cache produces bit-identical results to a cold one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.obs.journal import current_journal
from repro.obs.metrics import counter

__all__ = ["Memo"]

_HITS = counter("cache.hits")
_MISSES = counter("cache.misses")


class Memo:
    """Thread-safe FIFO-bounded key/value store with cache telemetry."""

    def __init__(self, namespace: str, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"memo capacity must be positive, got {capacity}")
        self.namespace = namespace
        self.capacity = capacity
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Any) -> Any | None:
        """Return the stored value or ``None``; counts a hit or a miss.

        Stored values are never ``None`` by construction (callers store
        result tuples), so ``None`` unambiguously means a miss.
        """
        with self._lock:
            value = self._entries.get(key)
            entries = len(self._entries)
        sink = current_journal()
        if value is None:
            _MISSES.inc()
            if sink is not None:
                sink.cache_event(self.namespace, "miss", entries)
            return None
        _HITS.inc()
        if sink is not None:
            sink.cache_event(self.namespace, "hit", entries)
        return value

    def put(self, key: Any, value: Any) -> None:
        """Store ``value``, evicting oldest entries beyond the capacity."""
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and journal the clear."""
        with self._lock:
            self._entries.clear()
        sink = current_journal()
        if sink is not None:
            sink.cache_event(self.namespace, "clear", 0)
