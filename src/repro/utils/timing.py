"""Lightweight wall-clock timing helpers used by the experiment harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Stopwatch:
    """Accumulating stopwatch.

    >>> watch = Stopwatch()
    >>> with watch:
    ...     _ = sum(range(100))
    >>> watch.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    laps: list[float] = field(default_factory=list)
    _started_at: float | None = None

    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = time.perf_counter()

    def stop(self) -> float:
        """Stop the watch and return the duration of the lap just ended."""
        if self._started_at is None:
            raise RuntimeError("stopwatch is not running")
        lap = time.perf_counter() - self._started_at
        self._started_at = None
        self.elapsed += lap
        self.laps.append(lap)
        return lap

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def mean_lap(self) -> float:
        if not self.laps:
            raise RuntimeError("no laps recorded")
        return self.elapsed / len(self.laps)
