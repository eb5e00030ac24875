"""Tests for repro.utils.timing."""

import pytest

from repro.utils.timing import Stopwatch


class TestStopwatch:
    def test_single_lap(self):
        watch = Stopwatch()
        with watch:
            pass
        assert watch.elapsed >= 0.0
        assert len(watch.laps) == 1

    def test_accumulates_laps(self):
        watch = Stopwatch()
        for _ in range(3):
            with watch:
                pass
        assert len(watch.laps) == 3
        assert watch.elapsed == pytest.approx(sum(watch.laps))

    def test_mean_lap(self):
        watch = Stopwatch()
        for _ in range(4):
            with watch:
                pass
        assert watch.mean_lap == pytest.approx(watch.elapsed / 4)

    def test_mean_lap_requires_laps(self):
        with pytest.raises(RuntimeError, match="no laps"):
            Stopwatch().mean_lap

    def test_double_start_rejected(self):
        watch = Stopwatch()
        watch.start()
        with pytest.raises(RuntimeError, match="already running"):
            watch.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError, match="not running"):
            Stopwatch().stop()

    def test_stop_returns_lap(self):
        watch = Stopwatch()
        watch.start()
        lap = watch.stop()
        assert lap == watch.laps[-1]
