"""The single source of truth for strategy and predictor names.

The CLI, the experiment harness and ``simulate`` all resolve names
through the two fixed tables here (:data:`STRATEGIES`,
:data:`PREDICTORS`), so that

* ``resolve_strategy("milp")`` / ``resolve_predictor("type-noise",
  accuracy=0.75)`` build fresh instances anywhere in the library, and
* :func:`strategy_factory` / :func:`predictor_factory` return *picklable*
  zero-argument factories — the property a pooled
  :func:`~repro.experiments.runner.run_matrix` relies on to ship cells
  to worker processes (closures and lambdas do not pickle; by-name
  factories do).  A worker re-resolves a name against the same fixed
  tables under every multiprocessing start method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping

from repro.core.base import MappingStrategy
from repro.core.exact import ExactResourceManager
from repro.core.heuristic import HeuristicResourceManager
from repro.core.milp_rm import MilpResourceManager
from repro.predict.base import NullPredictor, Predictor
from repro.predict.drift import DriftingPredictor
from repro.predict.markov import (
    ComposedPredictor,
    make_ar_predictor,
    make_seasonal_predictor,
)
from repro.predict.noisy import ArrivalNoisePredictor, TypeNoisePredictor
from repro.predict.oracle import OraclePredictor

__all__ = [
    "STRATEGIES",
    "PREDICTORS",
    "PredictorFactory",
    "StrategyFactory",
    "predictor_factory",
    "predictor_names",
    "resolve_predictor",
    "resolve_strategy",
    "strategy_factory",
    "strategy_names",
]


_STRATEGIES: dict[str, Callable[..., MappingStrategy]] = {
    "heuristic": HeuristicResourceManager,
    "milp": MilpResourceManager,
    "exact": ExactResourceManager,
}

_PREDICTORS: dict[str, Callable[..., Predictor]] = {
    "off": NullPredictor,
    "oracle": OraclePredictor,
    "learned": ComposedPredictor,
    "type-noise": TypeNoisePredictor,
    "arrival-noise": ArrivalNoisePredictor,
    "ar": make_ar_predictor,
    "seasonal": make_seasonal_predictor,
    "drift": DriftingPredictor,
}

#: Read-only views for introspection (`dict(STRATEGIES)` to copy).
STRATEGIES: Mapping[str, Callable[..., MappingStrategy]] = MappingProxyType(
    _STRATEGIES
)
PREDICTORS: Mapping[str, Callable[..., Predictor]] = MappingProxyType(
    _PREDICTORS
)


def strategy_names() -> list[str]:
    """All registered strategy names, sorted."""
    return sorted(_STRATEGIES)


def predictor_names() -> list[str]:
    """All registered predictor names, sorted."""
    return sorted(_PREDICTORS)


def resolve_strategy(name: str, **kwargs: Any) -> MappingStrategy:
    """Build a fresh strategy instance from its registry name."""
    try:
        constructor = _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {strategy_names()}"
        ) from None
    return constructor(**kwargs)


def resolve_predictor(name: str, **kwargs: Any) -> Predictor:
    """Build a fresh predictor instance from its registry name.

    ``kwargs`` are forwarded to the constructor (e.g. ``accuracy`` and
    ``seed`` for the noise predictors).
    """
    try:
        constructor = _PREDICTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor {name!r}; choose from {predictor_names()}"
        ) from None
    return constructor(**kwargs)


@dataclass(frozen=True)
class StrategyFactory:
    """A picklable zero-argument factory for a registered strategy.

    Stores only the registry *name*, so pickling it ships a few bytes and
    the worker process re-resolves against its own registry.
    """

    name: str

    def __call__(self) -> MappingStrategy:
        return resolve_strategy(self.name)


@dataclass(frozen=True)
class PredictorFactory:
    """A picklable zero-argument factory for a registered predictor.

    Constructor keyword arguments are stored as a sorted item tuple so
    two factories with the same configuration compare equal.
    """

    name: str
    kwargs: tuple[tuple[str, Any], ...] = field(default=())

    def __call__(self) -> Predictor:
        return resolve_predictor(self.name, **dict(self.kwargs))


def strategy_factory(name: str) -> StrategyFactory:
    """A picklable factory for strategy ``name`` (validated eagerly)."""
    if name not in _STRATEGIES:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {strategy_names()}"
        )
    return StrategyFactory(name)


def predictor_factory(name: str, **kwargs: Any) -> PredictorFactory:
    """A picklable factory for predictor ``name`` (validated eagerly)."""
    if name not in _PREDICTORS:
        raise ValueError(
            f"unknown predictor {name!r}; choose from {predictor_names()}"
        )
    return PredictorFactory(name, tuple(sorted(kwargs.items())))
