"""Predictor-fault degradation tests (satellite: raising/garbage
predictors fall back to the paper's no-prediction path)."""

from repro.faults.plan import FaultPlan, PredictorFault
from repro.model.request import PredictedRequest
from repro.predict.base import Predictor
from repro.sim.simulator import SimulationConfig, simulate
from repro.workload.trace import Trace


class RaisingPredictor(Predictor):
    name = "raising"

    def predict(self, trace: Trace, index: int) -> PredictedRequest | None:
        raise RuntimeError("model weights corrupted")


class GarbagePredictor(Predictor):
    name = "garbage"

    def predict(self, trace: Trace, index: int) -> PredictedRequest | None:
        return PredictedRequest(
            arrival=float("nan"), type_id=0, deadline=10.0
        )


def _window_plan(trace: Trace, kind: str) -> FaultPlan:
    span = trace.stats().span or 100.0
    return FaultPlan(
        predictor_faults=(PredictorFault(kind, 0.0, span + 1.0),)
    )


def test_injected_exception_degrades_to_no_prediction(tiny_trace, platform):
    plan = _window_plan(tiny_trace, "exception")
    config = SimulationConfig(fault_plan=plan, collect_records=True)
    result = simulate(tiny_trace, platform, "heuristic", "oracle", config)
    assert result.predictions_used == 0
    kinds = {event.kind for event in result.degradations}
    assert kinds == {"predictor-exception"}
    # the run completed end to end despite the faults
    assert result.n_accepted + result.n_rejected == result.n_requests
    assert all(not record.used_prediction for record in result.records)


def test_injected_timeout_degrades(tiny_trace, platform):
    plan = _window_plan(tiny_trace, "timeout")
    config = SimulationConfig(fault_plan=plan)
    result = simulate(tiny_trace, platform, "heuristic", "oracle", config)
    assert result.predictions_used == 0
    assert {e.kind for e in result.degradations} == {"predictor-timeout"}


def test_injected_garbage_is_filtered_and_recorded(tiny_trace, platform):
    plan = _window_plan(tiny_trace, "garbage")
    config = SimulationConfig(fault_plan=plan)
    result = simulate(tiny_trace, platform, "heuristic", "oracle", config)
    assert result.predictions_used == 0
    events = [e for e in result.degradations if e.kind == "predictor-garbage"]
    assert events
    assert all("outside the task set" in e.detail for e in events)


def test_injected_faults_ignored_when_prediction_off(tiny_trace, platform):
    plan = _window_plan(tiny_trace, "exception")
    config = SimulationConfig(fault_plan=plan)
    result = simulate(tiny_trace, platform, "heuristic", None, config)
    assert result.degradations == []


def test_partial_window_matches_no_prediction_outside(tiny_trace, platform):
    span = tiny_trace.stats().span or 100.0
    plan = FaultPlan(
        predictor_faults=(PredictorFault("exception", 0.0, span / 2.0),)
    )
    config = SimulationConfig(fault_plan=plan)
    result = simulate(tiny_trace, platform, "heuristic", "oracle", config)
    # predictions resume after the window ends
    assert result.predictions_used > 0
    assert any(e.kind == "predictor-exception" for e in result.degradations)


def test_raising_predictor_degrades_without_plan(tiny_trace, platform):
    result = simulate(
        tiny_trace,
        platform,
        "heuristic",
        RaisingPredictor(),
        SimulationConfig(),
    )
    assert result.predictions_used == 0
    events = [
        e for e in result.degradations if e.kind == "predictor-exception"
    ]
    assert events
    assert all("model weights corrupted" in e.detail for e in events)
    assert result.n_accepted + result.n_rejected == result.n_requests


def test_garbage_predictor_degrades_without_plan(tiny_trace, platform):
    clean = simulate(
        tiny_trace, platform, "heuristic", None, SimulationConfig()
    )
    garbage = simulate(
        tiny_trace,
        platform,
        "heuristic",
        GarbagePredictor(),
        SimulationConfig(),
    )
    assert garbage.predictions_used == 0
    assert any(
        e.kind == "predictor-garbage" for e in garbage.degradations
    )
    # degraded run matches the explicit no-prediction configuration
    assert garbage.accepted == clean.accepted
    assert garbage.rejected == clean.rejected
