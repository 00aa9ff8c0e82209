"""Tests for the online learned predictors (Markov type chain,
inter-arrival models, composed predictor)."""

import numpy as np
import pytest

from repro.predict.interarrival import (
    EwmaInterarrival,
    MeanInterarrival,
    TwoPhaseInterarrival,
)
from repro.predict.markov import ComposedPredictor, MarkovTypePredictor
from repro.predict.metrics import evaluate_predictor
from repro.workload.patterns import PatternConfig, generate_pattern_trace
from repro.workload.taskgen import TaskSetConfig, generate_task_set


class TestMarkovTypePredictor:
    def test_learns_deterministic_cycle(self):
        markov = MarkovTypePredictor()
        for type_id in [0, 1, 2, 0, 1, 2, 0, 1]:
            markov.update(type_id)
        assert markov.forecast() == 2  # after 1 always comes 2

    def test_falls_back_to_most_frequent(self):
        markov = MarkovTypePredictor()
        for type_id in [3, 3, 3, 5]:
            markov.update(type_id)
        # 5 has never been seen as a predecessor -> global mode (3)
        assert markov.forecast() == 3

    def test_empty_forecast_none(self):
        assert MarkovTypePredictor().forecast() is None

    def test_reset(self):
        markov = MarkovTypePredictor()
        markov.update(1)
        markov.reset()
        assert markov.forecast() is None

    def test_tie_break_deterministic(self):
        markov = MarkovTypePredictor()
        for type_id in [0, 1, 0, 2, 0]:
            markov.update(type_id)
        # successors of 0: {1: 1, 2: 1} -> smaller id wins
        assert markov.forecast() == 1


class TestMeanInterarrival:
    def test_running_mean(self):
        model = MeanInterarrival()
        for gap in (2.0, 4.0, 6.0):
            model.update(gap)
        assert model.forecast() == pytest.approx(4.0)

    def test_none_before_data(self):
        assert MeanInterarrival().forecast() is None

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            MeanInterarrival().update(-1.0)


class TestEwmaInterarrival:
    def test_first_value_seeds(self):
        model = EwmaInterarrival(alpha=0.5)
        model.update(10.0)
        assert model.forecast() == 10.0

    def test_smoothing(self):
        model = EwmaInterarrival(alpha=0.5)
        model.update(10.0)
        model.update(20.0)
        assert model.forecast() == pytest.approx(15.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EwmaInterarrival(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaInterarrival(alpha=1.5)

    def test_alpha_one_tracks_last(self):
        model = EwmaInterarrival(alpha=1.0)
        model.update(3.0)
        model.update(9.0)
        assert model.forecast() == 9.0


class TestTwoPhaseInterarrival:
    def test_learns_alternating_pattern(self):
        model = TwoPhaseInterarrival(context_length=2, resolution=0.25)
        pattern = [2.0, 2.0, 8.0] * 10
        for gap in pattern:
            model.update(gap)
        # context is (2.0, 8.0)... feed to a known point: after [2, 2]
        # comes 8
        model2 = TwoPhaseInterarrival(context_length=2, resolution=0.25)
        for gap in [2.0, 2.0, 8.0] * 10 + [2.0, 2.0]:
            model2.update(gap)
        forecast = model2.forecast()
        assert forecast == pytest.approx(8.0, rel=0.3)

    def test_fallback_before_patterns(self):
        model = TwoPhaseInterarrival(context_length=3)
        model.update(5.0)
        assert model.forecast() == pytest.approx(5.0)  # EWMA fallback

    def test_reset_clears_table(self):
        model = TwoPhaseInterarrival(context_length=1)
        for gap in (1.0, 2.0, 1.0, 2.0):
            model.update(gap)
        assert model.table_size > 0
        model.reset()
        assert model.table_size == 0
        assert model.forecast() is None


class TestComposedPredictor:
    @pytest.fixture
    def pattern_trace(self, platform):
        tasks = generate_task_set(
            platform, TaskSetConfig(n_tasks=20), rng=np.random.default_rng(3)
        )
        config = PatternConfig(
            n_requests=400,
            motif_length=6,
            type_mutation_prob=0.1,
            phases=((3.0, 0.2, 30), (7.0, 0.4, 15)),
        )
        return generate_pattern_trace(
            tasks, config, rng=np.random.default_rng(4)
        )

    def test_abstains_during_warmup(self, pattern_trace):
        predictor = ComposedPredictor(warmup=10)
        assert predictor.predict(pattern_trace, 0) is None
        assert predictor.predict(pattern_trace, 8) is None
        assert predictor.predict(pattern_trace, 10) is not None

    def test_learns_structured_stream(self, pattern_trace):
        """On a pattern stream the learned predictor reaches the accuracy
        regime of the paper's prior work: ~80-95% type accuracy and
        a small normalised arrival error."""
        report = evaluate_predictor(ComposedPredictor(), pattern_trace)
        assert report.type_accuracy > 0.7
        assert report.arrival_nrmse < 0.35

    def test_poor_on_unstructured_stream(self, tiny_trace):
        """On uniform-random types (Sec. 5.1 traces) the type accuracy
        collapses — the motivation for the paper's emulated-accuracy
        methodology."""
        report = evaluate_predictor(ComposedPredictor(warmup=3), tiny_trace)
        assert report.type_accuracy < 0.5

    def test_causality_enforced(self, pattern_trace):
        predictor = ComposedPredictor()
        predictor.predict(pattern_trace, 20)
        with pytest.raises(RuntimeError, match="backwards"):
            predictor.predict(pattern_trace, 5)
        predictor.reset()
        assert predictor.predict(pattern_trace, 5) is None or True

    def test_reset_between_traces(self, pattern_trace, tiny_trace):
        predictor = ComposedPredictor()
        predictor.predict(pattern_trace, 30)
        predictor.reset()
        # replay from the start of another trace works after reset
        predictor.predict(tiny_trace, 0)

    def test_prediction_fields_sane(self, pattern_trace):
        predictor = ComposedPredictor()
        prediction = predictor.predict(pattern_trace, 50)
        assert prediction is not None
        assert prediction.arrival >= pattern_trace[50].arrival
        assert prediction.deadline > 0
        assert 0 <= prediction.type_id < len(pattern_trace.tasks)

    def test_invalid_warmup(self):
        with pytest.raises(ValueError):
            ComposedPredictor(warmup=0)

