"""The single source of truth for strategy and predictor names.

Both the CLI and the experiment harness historically kept their own
name -> constructor tables; this module unifies them so that

* ``resolve_strategy("milp")`` / ``resolve_predictor("type-noise",
  accuracy=0.75)`` build fresh instances anywhere in the library,
* :func:`strategy_factory` / :func:`predictor_factory` return *picklable*
  zero-argument factories — the property the parallel experiment
  executor (:mod:`repro.experiments.executor`) relies on to ship work
  units to worker processes (closures and lambdas do not pickle;
  by-name factories do), and
* downstream code can :func:`register_strategy` /
  :func:`register_predictor` its own implementations and have them
  usable from :class:`~repro.experiments.runner.RunSpec`, ``simulate``
  and the CLI alike.
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
from repro.predict.demand import (
    ArDemandPredictor,
    DemandPredictor,
    EwmaDemandPredictor,
    HoltWintersDemandPredictor,
)
from repro.predict.drift import DriftingPredictor
from repro.predict.markov import (
    ComposedPredictor,
    make_ar_predictor,
    make_seasonal_predictor,
)
from repro.predict.noisy import ArrivalNoisePredictor, TypeNoisePredictor
from repro.predict.oracle import OraclePredictor
from repro.serve.clock import Clock, VirtualClock, WallClock

__all__ = [
    "CLOCKS",
    "DEMAND_PREDICTORS",
    "STRATEGIES",
    "PREDICTORS",
    "PredictorFactory",
    "StrategyFactory",
    "clock_names",
    "demand_predictor_names",
    "predictor_factory",
    "predictor_names",
    "register_clock",
    "register_demand_predictor",
    "register_predictor",
    "register_strategy",
    "resolve_clock",
    "resolve_demand_predictor",
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

#: Demand-vector forecasters (DESIGN.md §16) — a separate namespace
#: from the request predictors: they answer "how much of each resource
#: next", not "which request next", so a name like ``"ar"`` may appear
#: in both tables without ambiguity.
_DEMAND_PREDICTORS: dict[str, Callable[..., DemandPredictor]] = {
    "ewma": EwmaDemandPredictor,
    "holt-winters": HoltWintersDemandPredictor,
    "ar": ArDemandPredictor,
}

_CLOCKS: dict[str, Callable[..., Clock]] = {
    "virtual": VirtualClock,
    "wall": WallClock,
}

#: Read-only views for introspection (`dict(STRATEGIES)` to copy).
STRATEGIES: Mapping[str, Callable[..., MappingStrategy]] = MappingProxyType(
    _STRATEGIES
)
PREDICTORS: Mapping[str, Callable[..., Predictor]] = MappingProxyType(
    _PREDICTORS
)
DEMAND_PREDICTORS: Mapping[str, Callable[..., DemandPredictor]] = (
    MappingProxyType(_DEMAND_PREDICTORS)
)
CLOCKS: Mapping[str, Callable[..., Clock]] = MappingProxyType(_CLOCKS)


def strategy_names() -> list[str]:
    """All registered strategy names, sorted."""
    return sorted(_STRATEGIES)


def predictor_names() -> list[str]:
    """All registered predictor names, sorted."""
    return sorted(_PREDICTORS)


def demand_predictor_names() -> list[str]:
    """All registered demand-predictor names, sorted."""
    return sorted(_DEMAND_PREDICTORS)


def clock_names() -> list[str]:
    """All registered clock names, sorted."""
    return sorted(_CLOCKS)


def register_strategy(
    name: str,
    constructor: Callable[..., MappingStrategy],
    *,
    overwrite: bool = False,
) -> None:
    """Add a strategy constructor to the registry.

    Raises :class:`ValueError` if ``name`` is taken and ``overwrite`` is
    not set.
    """
    if name in _STRATEGIES and not overwrite:
        raise ValueError(f"strategy {name!r} is already registered")
    _STRATEGIES[name] = constructor


def register_predictor(
    name: str,
    constructor: Callable[..., Predictor],
    *,
    overwrite: bool = False,
) -> None:
    """Add a predictor constructor to the registry."""
    if name in _PREDICTORS and not overwrite:
        raise ValueError(f"predictor {name!r} is already registered")
    _PREDICTORS[name] = constructor


def register_demand_predictor(
    name: str,
    constructor: Callable[..., DemandPredictor],
    *,
    overwrite: bool = False,
) -> None:
    """Add a demand-predictor constructor to the registry."""
    if name in _DEMAND_PREDICTORS and not overwrite:
        raise ValueError(f"demand predictor {name!r} is already registered")
    _DEMAND_PREDICTORS[name] = constructor


def register_clock(
    name: str,
    constructor: Callable[..., Clock],
    *,
    overwrite: bool = False,
) -> None:
    """Add a clock constructor to the registry."""
    if name in _CLOCKS and not overwrite:
        raise ValueError(f"clock {name!r} is already registered")
    _CLOCKS[name] = constructor


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


def resolve_demand_predictor(name: str, **kwargs: Any) -> DemandPredictor:
    """Build a fresh demand predictor from its registry name.

    ``kwargs`` are forwarded to the constructor (e.g. ``alpha`` for the
    EWMA, ``period`` for Holt-Winters, ``order`` for the AR model).
    """
    try:
        constructor = _DEMAND_PREDICTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown demand predictor {name!r}; choose from "
            f"{demand_predictor_names()}"
        ) from None
    return constructor(**kwargs)


def resolve_clock(name: str, **kwargs: Any) -> Clock:
    """Build a fresh clock instance from its registry name.

    ``kwargs`` are forwarded to the constructor (e.g. ``speed`` for the
    wall clock, ``start`` for the virtual clock).
    """
    try:
        constructor = _CLOCKS[name]
    except KeyError:
        raise ValueError(
            f"unknown clock {name!r}; choose from {clock_names()}"
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
