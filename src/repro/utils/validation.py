"""Argument validation helpers shared across the library.

These raise built-in ``ValueError``/``TypeError`` (not :class:`ReproError`)
because a bad argument is a programming error at the call site, not a domain
failure.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def check_positive_int(value: int, name: str) -> int:
    """Return *value* if it is a positive integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_non_negative_int(value: int, name: str) -> int:
    """Return *value* if it is a non-negative integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return int(value)


def check_probability(value: float, name: str) -> float:
    """Return *value* if it lies in the closed interval [0, 1], else raise."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Return *value* if it lies in the half-open interval (0, 1], else raise."""
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")
    return value


def nearly_zero(value: float, atol: float = 1e-12) -> bool:
    """True when *value* is within *atol* of zero.

    The sanctioned replacement for ``x == 0.0`` on floats, which
    ``tests/test_source_rules.py`` forbids in ``game/`` and ``core/``:
    payoffs and mixture weights are Monte-Carlo estimates and products of
    probabilities, so exact equality encodes rounding behaviour, not model
    behaviour.  The default tolerance is far below any meaningful payoff
    difference yet absorbs representation noise.
    """
    return abs(float(value)) <= atol


def values_close(a: float, b: float, atol: float = 1e-9, rtol: float = 1e-9) -> bool:
    """True when *a* and *b* agree within absolute or relative tolerance.

    The sanctioned replacement for ``a == b`` on floats, which
    ``tests/test_source_rules.py`` forbids in ``game/`` and ``core/``.
    Symmetric: ``|a - b| <= atol + rtol * max(|a|, |b|)``.
    """
    a = float(a)
    b = float(b)
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def check_distribution(weights: Sequence[float], name: str, atol: float = 1e-8) -> np.ndarray:
    """Return *weights* as an array if it is a probability distribution.

    The entries must be non-negative and sum to 1 within *atol*.
    """
    arr = np.asarray(weights, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(arr < -atol):
        raise ValueError(f"{name} has negative entries: {arr}")
    total = float(arr.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"{name} must sum to 1, sums to {total}")
    arr = np.clip(arr, 0.0, None)
    return arr / arr.sum()
