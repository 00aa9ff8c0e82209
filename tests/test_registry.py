"""Tests for the unified strategy/predictor registry."""

import pickle

import pytest

from repro.core.base import MappingStrategy
from repro.core.exact import ExactResourceManager
from repro.core.heuristic import HeuristicResourceManager
from repro.core.milp_rm import MilpResourceManager
from repro.predict.base import NullPredictor
from repro.predict.noisy import TypeNoisePredictor
from repro.registry import (
    PREDICTORS,
    STRATEGIES,
    predictor_factory,
    predictor_names,
    resolve_predictor,
    resolve_strategy,
    strategy_factory,
    strategy_names,
)


class TestResolution:
    def test_all_strategy_names_resolve(self):
        for name in strategy_names():
            assert isinstance(resolve_strategy(name), MappingStrategy)

    def test_strategy_types(self):
        assert isinstance(resolve_strategy("heuristic"), HeuristicResourceManager)
        assert isinstance(resolve_strategy("milp"), MilpResourceManager)
        assert isinstance(resolve_strategy("exact"), ExactResourceManager)

    def test_fresh_instances(self):
        assert resolve_strategy("heuristic") is not resolve_strategy("heuristic")

    def test_all_predictor_names_resolve(self):
        for name in predictor_names():
            if name in ("type-noise", "arrival-noise"):
                predictor = resolve_predictor(name, accuracy=0.5, seed=1)
            else:
                predictor = resolve_predictor(name)
            assert predictor is not None

    def test_predictor_kwargs_forwarded(self):
        predictor = resolve_predictor("type-noise", accuracy=0.25, seed=7)
        assert isinstance(predictor, TypeNoisePredictor)
        assert predictor.accuracy == 0.25
        assert predictor.seed == 7

    def test_off_is_null_predictor(self):
        assert isinstance(resolve_predictor("off"), NullPredictor)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            resolve_strategy("quantum")

    def test_unknown_predictor(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            resolve_predictor("psychic")

    def test_error_lists_choices(self):
        with pytest.raises(ValueError, match="heuristic"):
            resolve_strategy("nope")

    def test_views_cover_both_tables(self):
        assert set(STRATEGIES) == set(strategy_names())
        assert set(PREDICTORS) == set(predictor_names())


class TestFactories:
    def test_strategy_factory_builds_fresh(self):
        factory = strategy_factory("milp")
        assert isinstance(factory(), MilpResourceManager)
        assert factory() is not factory()

    def test_strategy_factory_validates_eagerly(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            strategy_factory("quantum")

    def test_predictor_factory_with_kwargs(self):
        factory = predictor_factory("type-noise", accuracy=0.5, seed=3)
        predictor = factory()
        assert isinstance(predictor, TypeNoisePredictor)
        assert (predictor.accuracy, predictor.seed) == (0.5, 3)

    def test_predictor_factory_validates_eagerly(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            predictor_factory("psychic")

    def test_factories_pickle(self):
        for factory in (
            strategy_factory("heuristic"),
            predictor_factory("oracle"),
            predictor_factory("arrival-noise", accuracy=0.75, seed=9),
        ):
            clone = pickle.loads(pickle.dumps(factory))
            assert clone == factory
            assert type(clone()) is type(factory())

    def test_equal_configuration_compares_equal(self):
        assert predictor_factory("type-noise", seed=1, accuracy=0.5) == (
            predictor_factory("type-noise", accuracy=0.5, seed=1)
        )


class TestRegistration:
    def test_public_views_are_read_only(self):
        with pytest.raises(TypeError):
            STRATEGIES["hacked"] = HeuristicResourceManager  # type: ignore[index]
