"""Workload predictors.

The resource managers consume a
:class:`~repro.model.request.PredictedRequest` describing the next
expected request.  This package provides:

* :class:`~repro.predict.oracle.OraclePredictor` — perfect prediction
  (the paper's "predictor on" configuration);
* :class:`~repro.predict.base.NullPredictor` — no prediction
  ("predictor off");
* :class:`~repro.predict.noisy.TypeNoisePredictor` /
  :class:`~repro.predict.noisy.ArrivalNoisePredictor` — controlled
  degradation for the accuracy sweeps of Fig. 4;
* :class:`~repro.predict.markov.ComposedPredictor` — an actual online
  learned predictor (Markov type chain + two-phase inter-arrival model)
  in the spirit of the authors' prior work [12, 13], with
  :func:`~repro.predict.markov.make_ar_predictor` /
  :func:`~repro.predict.markov.make_seasonal_predictor` variants over
  AR(p) and Holt-Winters-seasonal gap models;
* :class:`~repro.predict.drift.DriftingPredictor` — the online-learning
  wrapper: Page-Hinkley + windowed-NRMSE drift detection, incremental
  retraining, fallback to the no-prediction path (DESIGN.md §16);
* :func:`~repro.predict.metrics.evaluate_predictor` — type accuracy and
  normalised arrival error of any predictor over any trace.
"""

from repro.predict.base import NullPredictor, OnlinePredictor, Predictor
from repro.predict.drift import DriftingPredictor, PageHinkley, WindowedNrmse
from repro.predict.interarrival import (
    ArInterarrival,
    EwmaInterarrival,
    InterarrivalModel,
    MeanInterarrival,
    SeasonalInterarrival,
    TwoPhaseInterarrival,
    fit_ar_coefficients,
)
from repro.predict.markov import (
    ComposedPredictor,
    MarkovTypePredictor,
    NGramTypePredictor,
    make_ar_predictor,
    make_seasonal_predictor,
)
from repro.predict.metrics import (
    PredictionReport,
    evaluate_predictor,
    nrmse,
    type_accuracy,
)
from repro.predict.noisy import ArrivalNoisePredictor, TypeNoisePredictor
from repro.predict.oracle import OraclePredictor
from repro.predict.scripted import ScriptedPredictor

__all__ = [
    "Predictor",
    "OnlinePredictor",
    "NullPredictor",
    "OraclePredictor",
    "TypeNoisePredictor",
    "ArrivalNoisePredictor",
    "MarkovTypePredictor",
    "NGramTypePredictor",
    "ComposedPredictor",
    "make_ar_predictor",
    "make_seasonal_predictor",
    "InterarrivalModel",
    "MeanInterarrival",
    "EwmaInterarrival",
    "TwoPhaseInterarrival",
    "ArInterarrival",
    "SeasonalInterarrival",
    "DriftingPredictor",
    "PageHinkley",
    "WindowedNrmse",
    "fit_ar_coefficients",
    "ScriptedPredictor",
    "PredictionReport",
    "evaluate_predictor",
    "nrmse",
    "type_accuracy",
]
