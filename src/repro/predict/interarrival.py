"""Online inter-arrival time models.

Lightweight next-gap estimators in the spirit of the authors' prior work
on inter-arrival prediction for runtime resource management [12]: small
state, O(1) updates, usable inside an RM activation.

Three models are provided:

* :class:`MeanInterarrival` — running mean of all gaps;
* :class:`EwmaInterarrival` — exponentially weighted moving average;
* :class:`TwoPhaseInterarrival` — a two-phase scheme: phase one matches
  the recent (quantised) gap history against a learned pattern table;
  phase two falls back to an EWMA when the pattern is unknown.  This
  mirrors the structure of the two-phase predictor of [12]: exploit
  repeating patterns when present, degrade gracefully to smoothing when
  not.

Two time-series models back the richer predictors of the online
learning suite (DESIGN.md §16):

* :class:`ArInterarrival` — an AR(p) fit over a sliding gap window
  (closed-form ridge least squares, :func:`fit_ar_coefficients`);
* :class:`SeasonalInterarrival` — Holt-Winters-style additive seasonal
  smoothing of the gap sequence, for workloads with periodic cadence.
"""

from __future__ import annotations

import abc
import collections
from typing import Sequence

import numpy as np

from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = [
    "InterarrivalModel",
    "MeanInterarrival",
    "EwmaInterarrival",
    "TwoPhaseInterarrival",
    "ArInterarrival",
    "SeasonalInterarrival",
    "fit_ar_coefficients",
]


class InterarrivalModel(abc.ABC):
    """Online estimator of the next inter-arrival gap."""

    @abc.abstractmethod
    def update(self, gap: float) -> None:
        """Ingest one observed gap (in arrival order)."""

    @abc.abstractmethod
    def forecast(self) -> float | None:
        """Estimate the next gap; ``None`` before any observation."""

    def reset(self) -> None:
        """Clear learned state."""


class MeanInterarrival(InterarrivalModel):
    """Running mean of all observed gaps."""

    def __init__(self) -> None:
        self._count = 0
        self._total = 0.0

    def reset(self) -> None:
        self._count = 0
        self._total = 0.0

    def update(self, gap: float) -> None:
        if gap < 0:
            raise ValueError(f"gap must be >= 0, got {gap}")
        self._count += 1
        self._total += gap

    def forecast(self) -> float | None:
        if self._count == 0:
            return None
        return self._total / self._count


class EwmaInterarrival(InterarrivalModel):
    """Exponentially weighted moving average of gaps.

    Parameters
    ----------
    alpha:
        Smoothing weight of the newest observation, in ``(0, 1]``.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        check_in_range("alpha", alpha, 0.0, 1.0, inclusive=True)
        if alpha == 0.0:
            raise ValueError("alpha must be > 0")
        self.alpha = alpha
        self._value: float | None = None

    def reset(self) -> None:
        self._value = None

    def update(self, gap: float) -> None:
        if gap < 0:
            raise ValueError(f"gap must be >= 0, got {gap}")
        if self._value is None:
            self._value = gap
        else:
            self._value = self.alpha * gap + (1.0 - self.alpha) * self._value

    def forecast(self) -> float | None:
        return self._value


class TwoPhaseInterarrival(InterarrivalModel):
    """Pattern table over quantised gaps, with an EWMA fallback.

    Gaps are quantised to ``resolution``-sized bins.  The model keeps,
    for every ``context_length``-gram of recent bins, a histogram of the
    bin that followed; the forecast is the centre of the most frequent
    successor bin.  When the current context has never been seen (or the
    history is too short), the EWMA fallback answers instead.

    Parameters
    ----------
    context_length:
        Number of recent gaps forming the lookup key.
    resolution:
        Bin width of the quantisation, as a fraction of the running mean
        gap (adaptive, so the table works across time scales).
    fallback_alpha:
        EWMA weight of the phase-two fallback.
    """

    def __init__(
        self,
        context_length: int = 3,
        resolution: float = 0.25,
        fallback_alpha: float = 0.3,
    ) -> None:
        check_positive("context_length", context_length)
        check_positive("resolution", resolution)
        self.context_length = context_length
        self.resolution = resolution
        self._fallback = EwmaInterarrival(fallback_alpha)
        self._mean = MeanInterarrival()
        self._recent: collections.deque[int] = collections.deque(
            maxlen=context_length
        )
        self._table: dict[tuple[int, ...], collections.Counter] = {}
        # Cached ``min((-count, bin))`` per context, kept exact
        # incrementally: counts only grow, so the stored best stays
        # valid until the incremented bin beats (or is) it.
        self._table_best: dict[tuple[int, ...], tuple[int, int]] = {}

    def reset(self) -> None:
        self._fallback.reset()
        self._mean.reset()
        self._recent.clear()
        self._table.clear()
        self._table_best.clear()

    def _bin_of(self, gap: float) -> int:
        mean = self._mean.forecast() or gap or 1.0
        width = max(self.resolution * mean, 1e-12)
        return int(gap / width)

    def _bin_centre(self, bin_index: int) -> float:
        mean = self._mean.forecast() or 1.0
        width = max(self.resolution * mean, 1e-12)
        return (bin_index + 0.5) * width

    def update(self, gap: float) -> None:
        if gap < 0:
            raise ValueError(f"gap must be >= 0, got {gap}")
        new_bin = self._bin_of(gap)
        if len(self._recent) == self.context_length:
            key = tuple(self._recent)
            histogram = self._table.setdefault(key, collections.Counter())
            histogram[new_bin] += 1
            # Most frequent successor bin; ties to the smaller bin so
            # the forecast is deterministic.
            candidate = (-histogram[new_bin], new_bin)
            best = self._table_best.get(key)
            if best is None or candidate < best or best[1] == new_bin:
                self._table_best[key] = candidate
        self._recent.append(new_bin)
        self._fallback.update(gap)
        self._mean.update(gap)

    def forecast(self) -> float | None:
        if len(self._recent) == self.context_length:
            best = self._table_best.get(tuple(self._recent))
            if best is not None:
                return self._bin_centre(best[1])
        return self._fallback.forecast()

    @property
    def table_size(self) -> int:
        """Number of learned contexts (diagnostics)."""
        return len(self._table)


def fit_ar_coefficients(
    series: Sequence[float] | np.ndarray,
    order: int,
    *,
    ridge: float = 1e-6,
) -> np.ndarray:
    """Fit AR(``order``) coefficients to a scalar series.

    Returns ``[intercept, c_1, ..., c_p]`` where ``c_1`` weights the
    most recent lag: the one-step forecast is
    ``intercept + sum(c_k * x[t - k])``.  The fit solves the
    ridge-regularised normal equations — a deterministic closed-form
    linear solve, unlike iterative or driver-dependent least squares.

    Requires at least ``order + 1`` samples (one usable regression row).
    """
    check_positive("order", order)
    check_non_negative("ridge", ridge)
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("series must be finite")
    n_rows = values.size - order
    if n_rows < 1:
        raise ValueError(
            f"need at least order + 1 = {order + 1} samples to fit AR"
            f"({order}), got {values.size}"
        )
    # Row t regresses x[t] on [1, x[t-1], ..., x[t-p]].
    design = np.ones((n_rows, order + 1))
    for lag in range(1, order + 1):
        design[:, lag] = values[order - lag : order - lag + n_rows]
    target = values[order:]
    gram = design.T @ design + ridge * np.eye(order + 1)
    coefficients: np.ndarray = np.linalg.solve(gram, design.T @ target)
    return coefficients


def _predict_ar(coefficients: np.ndarray, recent: np.ndarray) -> float:
    """One-step AR forecast from ``recent`` (oldest first)."""
    order = coefficients.size - 1
    lags = recent[-order:][::-1]  # c_1 weights the newest sample
    return float(coefficients[0] + coefficients[1:] @ lags)


class ArInterarrival(InterarrivalModel):
    """AR(p) over the recent gap history.

    Keeps the last ``window`` gaps; the forecast fits AR(``order``)
    coefficients by closed-form ridge least squares
    (:func:`fit_ar_coefficients`) and extrapolates one step, clamped at
    zero.  With fewer than ``order + 1`` retained
    gaps it degrades to the running mean of what it has; with none it
    abstains.
    """

    def __init__(
        self, order: int = 3, window: int = 64, *, ridge: float = 1e-6
    ) -> None:
        check_positive("order", order)
        check_positive("window", window)
        check_non_negative("ridge", ridge)
        if window < order + 1:
            raise ValueError(
                f"window ({window}) must be >= order + 1 ({order + 1})"
            )
        self.order = order
        self.window = window
        self.ridge = ridge
        self._gaps: collections.deque[float] = collections.deque(maxlen=window)

    def reset(self) -> None:
        self._gaps.clear()

    def update(self, gap: float) -> None:
        if gap < 0:
            raise ValueError(f"gap must be >= 0, got {gap}")
        self._gaps.append(gap)

    def forecast(self) -> float | None:
        if not self._gaps:
            return None
        if len(self._gaps) < self.order + 1:
            return sum(self._gaps) / len(self._gaps)
        series = np.asarray(self._gaps, dtype=float)
        coefficients = fit_ar_coefficients(
            series, self.order, ridge=self.ridge
        )
        return max(_predict_ar(coefficients, series), 0.0)


class SeasonalInterarrival(InterarrivalModel):
    """Holt-Winters-style additive seasonal smoothing of the gaps.

    A scalar level plus a per-phase seasonal correction of length
    ``period``; phase is the observation count modulo the period.
    Forecasts are clamped at zero.
    """

    def __init__(
        self, period: int = 8, alpha: float = 0.4, gamma: float = 0.3
    ) -> None:
        check_positive("period", period)
        check_in_range("alpha", alpha, 0.0, 1.0, inclusive=True)
        check_in_range("gamma", gamma, 0.0, 1.0, inclusive=True)
        if alpha == 0.0 or gamma == 0.0:
            raise ValueError("alpha and gamma must be > 0")
        self.period = period
        self.alpha = alpha
        self.gamma = gamma
        self._level: float | None = None
        self._season: list[float] = [0.0] * period
        self._count = 0

    def reset(self) -> None:
        self._level = None
        self._season = [0.0] * self.period
        self._count = 0

    def update(self, gap: float) -> None:
        if gap < 0:
            raise ValueError(f"gap must be >= 0, got {gap}")
        if self._level is None:
            self._level = gap
            self._count = 1
            return
        phase = self._count % self.period
        seasonal = self._season[phase]
        self._level = (
            self.alpha * (gap - seasonal) + (1.0 - self.alpha) * self._level
        )
        self._season[phase] = (
            self.gamma * (gap - self._level) + (1.0 - self.gamma) * seasonal
        )
        self._count += 1

    def forecast(self) -> float | None:
        if self._level is None:
            return None
        phase = self._count % self.period
        return max(self._level + self._season[phase], 0.0)
