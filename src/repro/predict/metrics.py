"""Prediction-quality evaluation.

Quantifies a predictor against a trace with the two measures the paper
uses (Sec. 1 and Sec. 5.4): type accuracy and the normalised RMS error of
the predicted arrival time (normalised by the trace's mean inter-arrival
time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.predict.base import Predictor
from repro.workload.trace import Trace

__all__ = ["PredictionReport", "evaluate_predictor", "nrmse", "type_accuracy"]


def nrmse(
    predicted: Sequence[float],
    actual: Sequence[float],
    *,
    norm: float | None = None,
) -> float:
    """Normalised RMS error of paired forecasts.

    ``sqrt(mean((predicted - actual)^2)) / norm``; when ``norm`` is
    omitted it defaults to the mean first difference of ``actual`` (the
    trace-level convention of :func:`evaluate_predictor`), computed in
    its exact telescoped form ``(actual[-1] - actual[0]) / (n - 1)``
    rather than by summing the gaps, whose rounding can leave a tiny
    non-zero residue where the true mean is 0.  It falls back to
    ``1.0`` when that mean is not strictly positive — degenerate inputs
    (constant or net-flat series, a single sample) degrade to the
    unnormalised error rather than NaN or a zero division.

    Raises :class:`ValueError` on mismatched lengths, on empty inputs,
    and on a non-positive explicit ``norm``.
    """
    if len(predicted) != len(actual):
        raise ValueError(
            f"length mismatch: {len(predicted)} predictions vs "
            f"{len(actual)} actuals"
        )
    if not actual:
        raise ValueError("cannot score zero forecasts")
    if norm is not None and not norm > 0:
        raise ValueError(f"norm must be > 0, got {norm}")
    if norm is None:
        n = len(actual)
        mean_gap = (actual[-1] - actual[0]) / (n - 1) if n > 1 else 0.0
        norm = mean_gap if mean_gap > 0 else 1.0
    squared = sum((p - a) ** 2 for p, a in zip(predicted, actual, strict=True))
    return math.sqrt(squared / len(actual)) / norm


def type_accuracy(predicted: Sequence[int], actual: Sequence[int]) -> float:
    """Fraction of matching entries in two equal-length type sequences.

    Raises :class:`ValueError` on mismatched lengths and on empty
    inputs (an accuracy over nothing is undefined, not 0 or 1).
    """
    if len(predicted) != len(actual):
        raise ValueError(
            f"length mismatch: {len(predicted)} predictions vs "
            f"{len(actual)} actuals"
        )
    if not actual:
        raise ValueError("cannot score zero forecasts")
    hits = sum(1 for p, a in zip(predicted, actual, strict=True) if p == a)
    return hits / len(actual)


@dataclass(frozen=True)
class PredictionReport:
    """Accuracy measures of one predictor over one trace.

    Attributes
    ----------
    n_predictions:
        Steps at which the predictor produced a forecast.
    n_abstained:
        Steps at which it returned ``None`` (warm-up, end of trace...).
    type_accuracy:
        Fraction of forecasts whose type matched the actual next request.
    arrival_nrmse:
        RMS error of the predicted arrival, divided by the trace's mean
        inter-arrival time (the paper's normalised error; 0 = perfect).
    arrival_mean_abs_error:
        Mean absolute arrival error, same normalisation.

    Degenerate traces have *defined* (never NaN, never a division by
    zero) error values:

    * a trace whose mean inter-arrival time is zero — e.g. a single
      request, where there are no gaps to average — normalises by 1.0
      instead, so the errors degrade to their *unnormalised* values;
    * a predictor that never forecasts reports ``arrival_nrmse`` and
      ``arrival_mean_abs_error`` of ``inf`` (no information is worse
      than any finite error), with ``type_accuracy`` 0.0;
    * exact forecasts on any trace score exactly ``0.0``.
    """

    n_predictions: int
    n_abstained: int
    type_accuracy: float
    arrival_nrmse: float
    arrival_mean_abs_error: float

    @property
    def coverage(self) -> float:
        """Fraction of steps with a forecast."""
        total = self.n_predictions + self.n_abstained
        return self.n_predictions / total if total else 0.0


def evaluate_predictor(predictor: Predictor, trace: Trace) -> PredictionReport:
    """Replay ``trace`` through ``predictor`` and score every forecast.

    The predictor is reset first.  At each request ``i`` (except the
    last) the forecast for ``i + 1`` is compared against the actual
    request ``i + 1``.
    """
    predictor.reset()
    mean_gap = trace.mean_interarrival()
    n_predictions = 0
    n_abstained = 0
    type_hits = 0
    squared_error = 0.0
    abs_error = 0.0
    for index in range(len(trace) - 1):
        prediction = predictor.predict(trace, index)
        if prediction is None:
            n_abstained += 1
            continue
        n_predictions += 1
        actual = trace[index + 1]
        if prediction.type_id == actual.type_id:
            type_hits += 1
        error = prediction.arrival - actual.arrival
        squared_error += error * error
        abs_error += abs(error)
    if n_predictions == 0:
        return PredictionReport(0, n_abstained, 0.0, math.inf, math.inf)
    # A zero (or pathological) mean gap must not divide the RMS error:
    # fall back to the unnormalised error rather than returning NaN/inf
    # for a perfectly good forecast (see the class docstring).
    norm = mean_gap if mean_gap > 0 else 1.0
    return PredictionReport(
        n_predictions=n_predictions,
        n_abstained=n_abstained,
        type_accuracy=type_hits / n_predictions,
        arrival_nrmse=math.sqrt(squared_error / n_predictions) / norm,
        arrival_mean_abs_error=abs_error / n_predictions / norm,
    )
