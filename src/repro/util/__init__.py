"""Shared utilities: seeded RNG streams, validation, ASCII reporting and
atomic file writes.

These helpers are deliberately dependency-light so every other subpackage
can import them without cycles.  Nothing here imports scipy: the package
sits on the import path of every entry point, the live server included.
"""

from repro.util.rng import RngStreams, derive_seed
from repro.util.tables import ascii_bar_chart, ascii_table, format_float
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = [
    "RngStreams",
    "derive_seed",
    "ascii_table",
    "ascii_bar_chart",
    "format_float",
    "check_positive",
    "check_non_negative",
    "check_in_range",
]
