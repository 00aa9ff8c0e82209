"""Discrete-event simulation of the managed platform.

:class:`~repro.sim.simulator.Simulator` replays a trace through a mapping
strategy under admission control, modelling execution, migrations, GPU
abort-restarts, energy dissipation and prediction overhead;
:class:`~repro.sim.result.SimulationResult` carries the paper's metrics
(rejection percentage, normalised energy).

Passing ``SimulationConfig(tracer=TraceOptions())`` additionally collects
the structured event stream and metrics snapshot of :mod:`repro.obs`
(re-exported here for convenience; see DESIGN.md §11).
"""

from repro.obs.events import TraceOptions
from repro.sim.gantt import render_gantt
from repro.sim.result import ActivationRecord, SimulationResult
from repro.sim.simulator import SimulationConfig, Simulator, simulate
from repro.sim.state import (
    ExecutionSpan,
    JobState,
    PlatformState,
    SimulationError,
)

__all__ = [
    "Simulator",
    "simulate",
    "SimulationConfig",
    "SimulationResult",
    "ActivationRecord",
    "JobState",
    "PlatformState",
    "SimulationError",
    "ExecutionSpan",
    "render_gantt",
    "TraceOptions",
]
