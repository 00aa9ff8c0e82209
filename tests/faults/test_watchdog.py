"""Unit tests for the solver watchdog (repro.faults.watchdog).

The watchdog only reads ``context.time``, so a ``SimpleNamespace``
stands in for the full RMContext.
"""

import math
from types import SimpleNamespace

import pytest

from repro.core.base import MappingDecision, MappingStrategy
from repro.faults.plan import FaultPlan, SolverFault
from repro.faults.watchdog import SolverWatchdog
from repro.obs.events import NULL_TRACER
from repro.registry import resolve_predictor


class Primary(MappingStrategy):
    name = "primary"

    def __init__(self) -> None:
        self.calls = 0

    def solve(self, context) -> MappingDecision:
        self.calls += 1
        return MappingDecision(feasible=True, mapping={1: 0}, energy=5.0)


class Exploding(MappingStrategy):
    name = "exploding"

    def __init__(self) -> None:
        self.calls = 0

    def solve(self, context) -> MappingDecision:
        self.calls += 1
        raise RuntimeError("solver blew up")


class Fallback(MappingStrategy):
    name = "fallback"

    def __init__(self) -> None:
        self.calls = 0

    def solve(self, context) -> MappingDecision:
        self.calls += 1
        return MappingDecision(feasible=True, mapping={1: 1}, energy=9.0)


def ctx(time: float = 0.0) -> SimpleNamespace:
    return SimpleNamespace(time=time)


def test_healthy_primary_passes_through():
    primary, fallback = Primary(), Fallback()
    watchdog = SolverWatchdog(primary, fallback)
    decision = watchdog.solve(ctx())
    assert decision.mapping == {1: 0}
    assert primary.calls == 1
    assert fallback.calls == 0
    assert watchdog.drain_events() == []


def test_raising_primary_degrades_to_fallback_with_event():
    primary, fallback = Exploding(), Fallback()
    watchdog = SolverWatchdog(primary, fallback)
    decision = watchdog.solve(ctx())
    assert decision.mapping == {1: 1}
    assert fallback.calls == 1
    events = watchdog.drain_events()
    assert len(events) == 1
    kind, detail = events[0]
    assert kind == "solver-exception"
    assert "RuntimeError" in detail and "solver blew up" in detail


def test_injected_window_skips_primary_entirely():
    primary, fallback = Primary(), Fallback()
    plan = FaultPlan(solver_faults=(SolverFault("timeout", 10.0, 20.0),))
    watchdog = SolverWatchdog(primary, fallback, plan=plan)

    # outside the window: the primary solves
    assert watchdog.solve(ctx(5.0)).mapping == {1: 0}
    assert primary.calls == 1
    assert watchdog.drain_events() == []

    # inside the window: the primary is never called (deterministic)
    decision = watchdog.solve(ctx(15.0))
    assert decision.mapping == {1: 1}
    assert primary.calls == 1
    assert fallback.calls == 1
    events = watchdog.drain_events()
    assert [kind for kind, _ in events] == ["solver-timeout"]


def test_no_fallback_yields_infeasible_and_unavailable_event():
    watchdog = SolverWatchdog(Exploding(), None)
    decision = watchdog.solve(ctx())
    assert not decision.feasible
    kinds = [kind for kind, _ in watchdog.drain_events()]
    assert kinds == ["solver-exception", "solver-unavailable"]


def test_raising_fallback_is_last_line_of_defence():
    watchdog = SolverWatchdog(Exploding(), Exploding())
    decision = watchdog.solve(ctx())
    assert not decision.feasible
    kinds = [kind for kind, _ in watchdog.drain_events()]
    assert kinds == ["solver-exception", "solver-unavailable"]


def test_drain_events_clears_buffer():
    watchdog = SolverWatchdog(Exploding(), Fallback())
    watchdog.solve(ctx())
    assert len(watchdog.drain_events()) == 1
    assert watchdog.drain_events() == []


def test_wall_budget_observes_without_enforcing():
    class Slow(MappingStrategy):
        name = "slow"

        def solve(self, context) -> MappingDecision:
            import time

            time.sleep(0.02)
            return MappingDecision(feasible=True, mapping={1: 0}, energy=1.0)

    watchdog = SolverWatchdog(Slow(), Fallback(), wall_budget=1e-6)
    decision = watchdog.solve(ctx())
    # observes only: the primary's decision is kept, the overrun logged
    assert decision.mapping == {1: 0}
    kinds = [kind for kind, _ in watchdog.drain_events()]
    assert kinds == ["solver-overrun"]


def test_wall_budget_enforced_substitutes_fallback():
    class Slow(MappingStrategy):
        name = "slow"

        def solve(self, context) -> MappingDecision:
            import time

            time.sleep(0.02)
            return MappingDecision(feasible=True, mapping={1: 0}, energy=1.0)

    watchdog = SolverWatchdog(
        Slow(), Fallback(), wall_budget=1e-6, enforce_budget=True
    )
    decision = watchdog.solve(ctx())
    assert decision.mapping == {1: 1}


def test_bad_wall_budget_rejected():
    with pytest.raises(ValueError, match="wall_budget"):
        SolverWatchdog(Primary(), wall_budget=0.0)


class TestFallbackIsTraced:
    """A traced run sees the decision events of whichever strategy
    solves, also when a watchdog's fallback does."""

    @staticmethod
    def placements(result):
        """The ``heuristic-place`` events without their stream position,
        which the faulted run's degradation events shift."""
        return [
            {k: v for k, v in event.to_dict().items() if k != "seq"}
            for event in result.events
            if event.kind == "heuristic-place"
        ]

    @pytest.fixture(scope="class")
    def setup(self):
        from repro import simulate
        from repro.experiments.common import standard_platform, standard_traces
        from repro.experiments.config import HarnessScale
        from repro.obs.events import TraceOptions
        from repro.workload.tracegen import DeadlineGroup

        platform = standard_platform()
        (trace,) = standard_traces(
            DeadlineGroup.VT, HarnessScale(1, 40, master_seed=0)
        )
        plain = simulate(
            trace, platform, "heuristic", "oracle", tracer=TraceOptions()
        )
        return platform, trace, plain, self.placements(plain)

    def test_plan_built_watchdog_traces_its_fallback(self, setup):
        from repro import simulate
        from repro.obs.events import TraceOptions

        platform, trace, plain, placed = setup
        plan = FaultPlan(
            solver_faults=(SolverFault("exception", 0.0, math.inf),)
        )
        faulted = simulate(
            trace,
            platform,
            "milp",
            "oracle",
            fault_plan=plan,
            tracer=TraceOptions(),
        )
        assert faulted.accepted == plain.accepted
        assert placed
        assert self.placements(faulted) == placed

    def test_user_watchdog_traces_its_fallback(self, setup):
        from repro.obs.events import TraceOptions
        from repro.registry import resolve_strategy
        from repro.sim.simulator import SimulationConfig, Simulator

        platform, trace, plain, placed = setup
        strategy = SolverWatchdog(Exploding(), resolve_strategy("heuristic"))
        simulator = Simulator(
            platform,
            strategy,
            resolve_predictor("oracle"),
            SimulationConfig(tracer=TraceOptions()),
        )
        faulted = simulator.run(trace)
        assert faulted.accepted == plain.accepted
        assert self.placements(faulted) == placed
        # Installed only for the run, on both strategies.
        assert strategy.fallback.tracer is NULL_TRACER
        assert strategy.tracer is NULL_TRACER
