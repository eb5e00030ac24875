"""Shared utilities: RNG handling, timing, validation, and table rendering."""

from repro.utils.rng import RandomSource, as_rng
from repro.utils.timing import Stopwatch
from repro.utils.validation import (
    check_fraction,
    check_positive_int,
    check_probability,
)
from repro.utils.tables import format_table
from repro.utils.charts import ascii_chart

__all__ = [
    "RandomSource",
    "as_rng",
    "Stopwatch",
    "check_fraction",
    "check_positive_int",
    "check_probability",
    "format_table",
    "ascii_chart",
]
