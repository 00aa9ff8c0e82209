"""Reproduction of *Runtime Resource Management with Workload Prediction*
(Niknafs, Ukhov, Eles, Peng — DAC 2019).

A prediction-aware, energy-minimising resource manager for heterogeneous
embedded platforms, together with every substrate the paper's evaluation
needs: workload generation, EDF scheduling, a MILP layer, predictors, a
discrete-event simulator and the full experiment harness.

Quick start::

    from repro import (
        Platform, TraceConfig, DeadlineGroup,
        generate_task_set, generate_trace, simulate,
    )

    platform = Platform.cpu_gpu(n_cpus=5, n_gpus=1)
    tasks = generate_task_set(platform)
    trace = generate_trace(tasks, TraceConfig(group=DeadlineGroup.VT))
    result = simulate(trace, platform, "heuristic", "oracle")
    print(result.rejection_percentage, result.normalized_energy)

Strategies and predictors are resolvable by registry name
(:mod:`repro.registry`), and experiment sweeps run in parallel with
``run_matrix(..., parallel=N)``.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core import (
    PREDICTED_JOB_ID,
    AdmissionController,
    AdmissionOutcome,
    ExactResourceManager,
    HeuristicResourceManager,
    MappingDecision,
    MappingStrategy,
    MilpResourceManager,
    MilpValidationError,
    PlannedTask,
    RMContext,
    mapping_energy,
    mapping_feasible,
)
from repro.model import (
    NOT_EXECUTABLE,
    Platform,
    PredictedRequest,
    Request,
    Resource,
    TaskType,
)
from repro.analysis.invariants import (
    VerificationError,
    VerificationReport,
    Violation,
    verify_result,
)
from repro.experiments.runner import Aggregate, RunSpec, run_matrix
from repro.faults import (
    DegradationEvent,
    FaultPlan,
    PredictorFault,
    ResourceOutage,
    SolverFault,
    SolverWatchdog,
    TraceFault,
)
from repro.obs import (
    CollectingTracer,
    MetricsRegistry,
    MetricsSnapshot,
    NullTracer,
    SimEvent,
    TraceOptions,
    Tracer,
    chrome_trace,
    event_stream_digest,
    events_to_jsonl,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.predict import (
    ArrivalNoisePredictor,
    ComposedPredictor,
    NullPredictor,
    OraclePredictor,
    Predictor,
    TypeNoisePredictor,
    evaluate_predictor,
)
from repro.registry import (
    register_predictor,
    register_strategy,
    resolve_predictor,
    resolve_strategy,
)
from repro.serve import Clock, VirtualClock, WallClock

if False:  # pragma: no cover - typing-time only, see __getattr__ below
    from repro.serve import AdmissionServer, ServeClient, ServeConfig
from repro.sim import (
    SimulationConfig,
    SimulationResult,
    Simulator,
    simulate,
)
from repro.workload import (
    DeadlineGroup,
    TaskSetConfig,
    Trace,
    TraceConfig,
    generate_pattern_trace,
    generate_task_set,
    generate_trace,
    generate_trace_group,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "Platform",
    "Resource",
    "TaskType",
    "NOT_EXECUTABLE",
    "Request",
    "PredictedRequest",
    # workload
    "TaskSetConfig",
    "TraceConfig",
    "DeadlineGroup",
    "Trace",
    "generate_task_set",
    "generate_trace",
    "generate_trace_group",
    "generate_pattern_trace",
    # core
    "PlannedTask",
    "RMContext",
    "PREDICTED_JOB_ID",
    "MappingStrategy",
    "MappingDecision",
    "mapping_feasible",
    "mapping_energy",
    "HeuristicResourceManager",
    "MilpResourceManager",
    "MilpValidationError",
    "ExactResourceManager",
    "AdmissionController",
    "AdmissionOutcome",
    # predict
    "Predictor",
    "NullPredictor",
    "OraclePredictor",
    "TypeNoisePredictor",
    "ArrivalNoisePredictor",
    "ComposedPredictor",
    "evaluate_predictor",
    # sim
    "Simulator",
    "simulate",
    "SimulationConfig",
    "SimulationResult",
    # registry
    "resolve_strategy",
    "resolve_predictor",
    "register_strategy",
    "register_predictor",
    # serve
    "Clock",
    "VirtualClock",
    "WallClock",
    "AdmissionServer",
    "ServeClient",
    "ServeConfig",
    # experiments
    "RunSpec",
    "Aggregate",
    "run_matrix",
    # faults
    "FaultPlan",
    "ResourceOutage",
    "PredictorFault",
    "SolverFault",
    "TraceFault",
    "DegradationEvent",
    "SolverWatchdog",
    # analysis
    "verify_result",
    "VerificationReport",
    "VerificationError",
    "Violation",
    # obs
    "SimEvent",
    "Tracer",
    "NullTracer",
    "CollectingTracer",
    "TraceOptions",
    "MetricsRegistry",
    "MetricsSnapshot",
    "events_to_jsonl",
    "event_stream_digest",
    "write_events_jsonl",
    "chrome_trace",
    "write_chrome_trace",
]

#: Server-stack names resolved lazily (PEP 562) so ``import repro``
#: stays free of asyncio and the daemon; the clock family above is
#: stdlib-only and imported eagerly.
_LAZY_SERVE = ("AdmissionServer", "ServeClient", "ServeConfig")


def __getattr__(name: str) -> object:
    if name in _LAZY_SERVE:
        import repro.serve

        return getattr(repro.serve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
