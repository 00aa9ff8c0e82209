"""Small argument-validation helpers.

All raise ``ValueError`` with a message naming the offending argument, so
constructors across the library validate consistently.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_probability",
    "check_non_empty",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for chaining."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Require ``low <= value <= high`` (or strict if ``inclusive=False``)."""
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require a probability in ``[0, 1]``."""
    return check_in_range(name, value, 0.0, 1.0)


def check_non_empty(name: str, value: Iterable) -> Iterable:
    """Require a non-empty sized collection."""
    try:
        size = len(value)  # type: ignore[arg-type]
    except TypeError as exc:  # pragma: no cover - defensive
        raise TypeError(f"{name} must be a sized collection") from exc
    if size == 0:
        raise ValueError(f"{name} must not be empty")
    return value
