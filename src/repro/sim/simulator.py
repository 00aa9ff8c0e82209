"""The trace-replay simulator.

Drives one :class:`~repro.workload.trace.Trace` through an
:class:`~repro.core.admission.AdmissionController` on a
:class:`~repro.model.platform.Platform`:

1. advance platform execution to each request's arrival;
2. query the predictor for the next request (charging the configured
   prediction overhead as a decision delay, Sec. 5.5);
3. build the RM context (``S-bar`` = active jobs + new arrival +
   predicted task) and run admission;
4. apply the resulting mapping (migrations, aborts) or leave the old,
   still-feasible plan in force on rejection;
5. after the last arrival, drain the platform to completion.

Admitted tasks never miss deadlines (firm real-time semantics are
enforced by admission); the simulator asserts this invariant and raises
:class:`~repro.sim.state.SimulationError` on any violation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.admission import AdmissionController
from repro.core.base import MappingStrategy
from repro.core.context import PREDICTED_JOB_ID, PlannedTask, RMContext
from repro.faults.events import DegradationEvent
from repro.model.platform import Platform
from repro.model.request import PredictedRequest
from repro.obs.events import (
    NULL_TRACER,
    CollectingTracer,
    TraceOptions,
    Tracer,
    monotonic_now,
)
from repro.obs.metrics import MetricsRegistry
from repro.predict.base import NullPredictor, Predictor
from repro.serve.clock import Clock
from repro.sim.result import ActivationRecord, SimulationResult
from repro.sim.state import PlatformState
from repro.util.validation import check_non_negative
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

__all__ = ["SimulationConfig", "Simulator", "simulate"]


@dataclass(frozen=True)
class SimulationConfig:
    """Simulator knobs.

    Attributes
    ----------
    prediction_overhead:
        Decision delay charged at every activation when a (non-null)
        predictor is configured: the platform keeps executing the old
        plan during ``[arrival, arrival + overhead]`` and the RM decides
        at the end of the window (Sec. 5.5 methodology).
    charge_unstarted_migration:
        Whether remapping a never-started task pays migration overhead
        (DESIGN.md semantics item 3).
    collect_records:
        Keep one :class:`~repro.sim.result.ActivationRecord` per arrival.
    collect_execution_log:
        Record every execution span for Gantt rendering
        (:func:`repro.sim.gantt.render_gantt`).
    lookahead:
        How many upcoming requests the RM plans with (the paper: 1).
        Values above 1 require a multi-step-capable predictor (e.g. the
        oracle) and a strategy that accepts several predicted tasks
        (heuristic or exact search; the MILP follows the paper and
        rejects horizons > 1).
    verify:
        Re-check the finished schedule with the independent invariant
        verifier (:mod:`repro.analysis.invariants`).  The execution log
        is collected internally (and dropped again unless
        ``collect_execution_log`` is also set); a clean run attaches its
        :class:`~repro.analysis.invariants.VerificationReport` to the
        result, a dirty one raises
        :class:`~repro.analysis.invariants.VerificationError`.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` injected into the
        run: the trace is perturbed, resources go down and come back,
        predictor and solver faults degrade to the no-prediction /
        fallback paths, and every degradation is recorded on the result
        (DESIGN.md §10).  ``None`` (the default) is the clean run —
        bit-identical to a run with an empty plan.
    tracer:
        Optional :class:`~repro.obs.events.TraceOptions` enabling the
        observability layer (DESIGN.md §11): the run collects a
        structured :class:`~repro.obs.events.SimEvent` stream and/or a
        :class:`~repro.obs.metrics.MetricsSnapshot` onto the result.
        ``None`` (the default) traces nothing and stays within noise of
        an untraced build (the NullTracer overhead contract).  Tracing
        never changes simulation behaviour — only what is recorded.
    clock:
        Optional :class:`~repro.serve.clock.Clock` the run keeps in step
        with platform progress (DESIGN.md §12).  ``None`` (the default)
        gives each run a private
        :class:`~repro.serve.clock.VirtualClock`.  The simulator is the
        virtual-clock mode of the shared engine: the clock observes
        simulation time, it never drives decisions, so results are
        clock-independent (and bit-identical to the pre-``Clock`` code).
    """

    prediction_overhead: float = 0.0
    charge_unstarted_migration: bool = False
    collect_records: bool = False
    lookahead: int = 1
    collect_execution_log: bool = False
    verify: bool = False
    fault_plan: "FaultPlan | None" = None
    tracer: TraceOptions | None = None
    clock: Clock | None = None

    def __post_init__(self) -> None:
        check_non_negative("prediction_overhead", self.prediction_overhead)
        if self.lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {self.lookahead}")


class Simulator:
    """Replays traces through a mapping strategy with admission control.

    ``strategy`` and ``predictor`` accept instances or registry names
    (see :mod:`repro.registry`): ``Simulator(platform, "heuristic",
    "oracle")`` is equivalent to building the objects by hand.
    """

    def __init__(
        self,
        platform: Platform,
        strategy: MappingStrategy | str,
        predictor: Predictor | str | None = None,
        config: SimulationConfig | None = None,
    ) -> None:
        if isinstance(strategy, str) or isinstance(predictor, str):
            # Imported lazily: the registry pulls in every strategy and
            # predictor implementation, which this module must not.
            from repro.registry import resolve_predictor, resolve_strategy

            if isinstance(strategy, str):
                strategy = resolve_strategy(strategy)
            if isinstance(predictor, str):
                predictor = resolve_predictor(predictor)
        self.platform = platform
        self.strategy = strategy
        self.predictor = predictor or NullPredictor()
        self.config = config or SimulationConfig()
        self._admission = AdmissionController(strategy)

    @property
    def prediction_enabled(self) -> bool:
        """Whether a real (non-null) predictor is configured."""
        return not isinstance(self.predictor, NullPredictor)

    def run(self, trace: Trace) -> SimulationResult:
        """Simulate one trace end-to-end and return the metrics.

        With ``SimulationConfig(tracer=TraceOptions())`` the run also
        collects the structured event stream and metrics snapshot onto
        the result (DESIGN.md §11); the tracer is installed on the
        strategy and admission controller only for the duration of this
        call, so untraced runs through the same objects stay clean.
        """
        options = self.config.tracer
        if options is None:
            return self._run(trace, NULL_TRACER, None)
        tracer: Tracer = CollectingTracer() if options.events else NULL_TRACER
        metrics = MetricsRegistry() if options.metrics else None
        wall_start = monotonic_now()
        self.strategy.tracer = tracer
        try:
            result = self._run(trace, tracer, metrics)
        finally:
            self.strategy.tracer = NULL_TRACER
        if isinstance(tracer, CollectingTracer):
            result.events = tracer.events
        if metrics is not None:
            metrics.gauge_max(
                "wall/run_seconds", monotonic_now() - wall_start
            )
            result.metrics = metrics.snapshot()
        return result

    def _run(
        self,
        trace: Trace,
        tracer: Tracer,
        metrics: MetricsRegistry | None,
    ) -> SimulationResult:
        plan = self.config.fault_plan
        if plan is not None and plan.trace_faults:
            trace = plan.perturb_trace(trace)
        if trace.n_resources != self.platform.size:
            raise ValueError(
                f"trace built for {trace.n_resources} resources, platform "
                f"has {self.platform.size}"
            )
        self.predictor.reset()
        state = PlatformState(
            self.platform,
            charge_unstarted_migration=self.config.charge_unstarted_migration,
            log_execution=(
                self.config.collect_execution_log or self.config.verify
            ),
            tracer=tracer,
            clock=self.config.clock,
        )
        result = SimulationResult(
            n_requests=len(trace), energy_demand=trace.stats().energy_demand
        )
        admission = self._faulted_admission(plan)
        admission.tracer = tracer
        if tracer.enabled:
            tracer.emit(
                "sim-start",
                time=0.0,
                data=(
                    ("lookahead", self.config.lookahead),
                    ("n_requests", len(trace)),
                    ("n_resources", self.platform.size),
                    ("predictor", type(self.predictor).__name__),
                    ("strategy", self.strategy.name),
                ),
            )
        fault_events: deque[tuple[float, str, int]] = deque(
            plan.outage_events() if plan is not None else ()
        )

        def advance_to(until: float) -> None:
            # Outage boundaries are applied *before* execution crosses
            # them, so a failing resource never runs past its outage
            # start.  With no plan this is exactly state.advance(until).
            while fault_events and fault_events[0][0] <= until:
                etime, ekind, resource = fault_events.popleft()
                if etime > state.time:
                    state.advance(etime)
                self._apply_outage(
                    state, result, admission, etime, ekind, resource, tracer
                )
            state.advance(until)

        for index, request in enumerate(trace):
            # With a decision overhead, the previous activation may have
            # finished *after* this request arrived; the RM handles
            # arrivals in order, so this decision starts no earlier.
            decision_time = max(request.arrival, state.time)
            advance_to(decision_time)
            predictions = self._safe_predictions(
                trace, index, decision_time, result, tracer
            )
            if self.prediction_enabled and self.config.prediction_overhead > 0:
                decision_time += self.config.prediction_overhead
                advance_to(decision_time)
                result.prediction_overhead_total += (
                    self.config.prediction_overhead
                )

            new_task = PlannedTask(
                job_id=request.index,
                task=trace.task_of(request),
                absolute_deadline=request.absolute_deadline,
            )
            tasks = [*state.active_views(), new_task]
            predicted_views = [
                self._predicted_view(trace, p, decision_time, offset)
                for offset, p in enumerate(predictions)
            ]
            tasks.extend(predicted_views)
            context = RMContext(
                time=decision_time,
                platform=self.platform,
                tasks=tuple(tasks),
                charge_unstarted_migration=(
                    self.config.charge_unstarted_migration
                ),
                down_resources=frozenset(state.down),
            )
            outcome = admission.decide(context)
            result.solver_calls_total += outcome.solver_calls
            self._drain_strategy_events(
                admission, result, decision_time, index, tracer
            )
            if tracer.enabled:
                tracer.emit(
                    "admission-accept" if outcome.admitted
                    else "admission-reject",
                    time=decision_time,
                    job_id=request.index,
                    request_index=index,
                    data=(
                        ("context_size", len(context.tasks)),
                        ("energy", (
                            outcome.decision.energy
                            if outcome.decision is not None
                            else math.inf
                        )),
                        ("solver_calls", outcome.solver_calls),
                        ("used_prediction", outcome.used_prediction),
                    ),
                )
            if metrics is not None:
                metrics.observe(
                    "sim/context_size",
                    len(context.tasks),
                    bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
                )
                metrics.observe(
                    "sim/decision_latency", decision_time - request.arrival
                )
            if outcome.admitted:
                assert outcome.decision is not None
                state.admit(request, trace.task_of(request))
                real_mapping = {
                    job_id: resource
                    for job_id, resource in outcome.decision.mapping.items()
                    if job_id < PREDICTED_JOB_ID
                }
                state.apply_mapping(real_mapping)
                result.accepted.append(index)
                if outcome.used_prediction:
                    result.predictions_used += 1
            else:
                result.rejected.append(index)
            if metrics is not None:
                metrics.gauge_max(
                    "sim/peak_active_jobs", float(len(state.jobs))
                )
            if self.config.collect_records:
                result.records.append(
                    ActivationRecord(
                        request_index=index,
                        arrival=request.arrival,
                        decision_time=decision_time,
                        admitted=outcome.admitted,
                        used_prediction=outcome.used_prediction,
                        had_prediction=bool(predicted_views),
                        solver_calls=outcome.solver_calls,
                        context_size=len(context.tasks),
                        planned_energy=(
                            outcome.decision.energy
                            if outcome.decision is not None
                            else math.inf
                        ),
                    )
                )

        # Drain: outages striking before the backlog finishes still
        # displace jobs; boundaries past the horizon change nothing.
        while fault_events and fault_events[0][0] < state.completion_horizon():
            advance_to(fault_events[0][0])
        state.advance(state.completion_horizon())
        if state.jobs:  # pragma: no cover - invariant
            raise RuntimeError(
                f"jobs left unfinished after drain: {sorted(state.jobs)}"
            )
        result.total_energy = state.total_energy
        result.execution_log = state.execution_log or []
        result.wasted_energy = state.wasted_energy
        result.migration_energy = state.migration_energy
        result.migration_count = state.migration_count
        result.abort_count = state.abort_count
        if tracer.enabled:
            tracer.emit(
                "sim-end",
                time=state.time,
                data=(
                    ("aborts", result.abort_count),
                    ("migrations", result.migration_count),
                    ("n_accepted", result.n_accepted),
                    ("n_rejected", result.n_rejected),
                    ("solver_calls", result.solver_calls_total),
                    ("total_energy", result.total_energy),
                ),
            )
        if metrics is not None:
            self._fold_metrics(metrics, result, state.time)
        if self.config.verify:
            self._verify(trace, result)
        return result

    @staticmethod
    def _fold_metrics(
        metrics: MetricsRegistry,
        result: SimulationResult,
        horizon: float,
    ) -> None:
        """Record the run's headline totals into the metrics registry.

        Counters sum across executor cells (ints stay ints; energies
        are float sums); gauges are per-run high-water marks that merge
        by ``max`` (DESIGN.md §11).  ``horizon`` is the platform time
        when the run finished.
        """
        metrics.inc("energy/migration", result.migration_energy)
        metrics.inc("energy/total", result.total_energy)
        metrics.inc("energy/wasted", result.wasted_energy)
        metrics.inc("platform/aborts", result.abort_count)
        metrics.inc("platform/migrations", result.migration_count)
        metrics.inc("sim/accepted", result.n_accepted)
        metrics.inc("sim/degradations", len(result.degradations))
        metrics.inc("sim/evicted", len(result.evicted))
        metrics.inc("sim/predictions_used", result.predictions_used)
        metrics.inc(
            "sim/prediction_overhead", result.prediction_overhead_total
        )
        metrics.inc("sim/rejected", result.n_rejected)
        metrics.inc("sim/requests", result.n_requests)
        metrics.inc("solver/calls", result.solver_calls_total)
        metrics.gauge_max("sim/horizon", horizon)

    def _faulted_admission(
        self, plan: "FaultPlan | None"
    ) -> AdmissionController:
        """The admission controller for one run, watchdogged if needed.

        A plan with solver fault windows wraps the strategy in a
        :class:`~repro.faults.watchdog.SolverWatchdog` (fallback resolved
        from the registry by the plan's ``solver_fallback`` name), unless
        the caller already supplied a watchdog of their own.
        """
        if plan is None or not plan.solver_faults:
            return self._admission
        # Imported lazily: the watchdog and registry pull in every
        # strategy implementation, which this module must not.
        from repro.faults.watchdog import SolverWatchdog
        from repro.registry import resolve_strategy

        if isinstance(self.strategy, SolverWatchdog):
            return self._admission
        watchdog = SolverWatchdog(
            self.strategy,
            resolve_strategy(plan.solver_fallback),
            plan=plan,
        )
        return AdmissionController(watchdog)

    @staticmethod
    def _degrade(
        result: SimulationResult,
        tracer: Tracer,
        event: DegradationEvent,
    ) -> None:
        """Record one degradation, mirroring it into the event stream.

        Every graceful-degradation decision lands on the result as
        before; with tracing enabled it is additionally passed through
        as a ``degradation`` :class:`~repro.obs.events.SimEvent` whose
        ``detail`` is the degradation kind (DESIGN.md §11).
        """
        result.degradations.append(event)
        if tracer.enabled:
            data = (
                (("detail", event.detail),) if event.detail is not None
                else ()
            )
            tracer.emit(
                "degradation",
                time=event.time,
                job_id=event.job_id,
                resource=event.resource,
                request_index=event.request_index,
                detail=event.kind,
                data=data,
            )

    def _apply_outage(
        self,
        state: PlatformState,
        result: SimulationResult,
        admission: AdmissionController,
        etime: float,
        kind: str,
        resource: int,
        tracer: Tracer,
    ) -> None:
        """Apply one outage boundary at ``etime`` (state already there).

        A ``"down"`` boundary displaces every job on the resource (their
        execution state is lost) and attempts re-admission in EDF order:
        each displaced job restarts from scratch on the surviving
        resources if the RM finds a feasible mapping, and is evicted
        otherwise — the firm-deadline analogue of rejecting an arrival.
        """
        if kind == "up":
            state.restore_resource(resource)
            self._degrade(
                result,
                tracer,
                DegradationEvent(
                    time=etime, kind="resource-up", resource=resource
                ),
            )
            return
        displaced = state.fail_resource(resource)
        self._degrade(
            result,
            tracer,
            DegradationEvent(
                time=etime,
                kind="resource-down",
                resource=resource,
                detail=f"{len(displaced)} job(s) displaced",
            ),
        )
        for job in displaced:
            views = [*state.active_views(), job.planned_view()]
            context = RMContext(
                time=state.time,
                platform=self.platform,
                tasks=tuple(views),
                charge_unstarted_migration=(
                    self.config.charge_unstarted_migration
                ),
                down_resources=frozenset(state.down),
            )
            outcome = admission.remap(context)
            result.solver_calls_total += outcome.solver_calls
            self._drain_strategy_events(admission, result, etime, None, tracer)
            if outcome.admitted:
                assert outcome.decision is not None
                state.readmit(job)
                real_mapping = {
                    job_id: target
                    for job_id, target in outcome.decision.mapping.items()
                    if job_id < PREDICTED_JOB_ID
                }
                state.apply_mapping(real_mapping)
                self._degrade(
                    result,
                    tracer,
                    DegradationEvent(
                        time=etime,
                        kind="job-readmitted",
                        job_id=job.job_id,
                        resource=job.resource,
                    ),
                )
            else:
                result.evicted.append(job.job_id)
                self._degrade(
                    result,
                    tracer,
                    DegradationEvent(
                        time=etime,
                        kind="job-evicted",
                        job_id=job.job_id,
                        detail="no feasible mapping on surviving resources",
                    ),
                )

    def _safe_predictions(
        self,
        trace: Trace,
        index: int,
        decision_time: float,
        result: SimulationResult,
        tracer: Tracer,
    ) -> list[PredictedRequest]:
        """Query the predictor, degrading on any fault.

        Injected predictor faults (from the plan) and real predictor
        misbehaviour (exceptions, invalid forecasts) both reduce to the
        paper's no-prediction RM path: the activation plans without a
        predicted task and the degradation is recorded on the result.
        With tracing enabled, every query of a real predictor emits one
        ``predictor-call`` event carrying the usable forecast count.
        """
        valid = self._query_predictor(
            trace, index, decision_time, result, tracer
        )
        self._drain_predictor_events(result, decision_time, index, tracer)
        if tracer.enabled and self.prediction_enabled:
            tracer.emit(
                "predictor-call",
                time=decision_time,
                request_index=index,
                detail=type(self.predictor).__name__,
                data=(("n_forecasts", len(valid)),),
            )
        return valid

    def _query_predictor(
        self,
        trace: Trace,
        index: int,
        decision_time: float,
        result: SimulationResult,
        tracer: Tracer,
    ) -> list[PredictedRequest]:
        plan = self.config.fault_plan
        injected = (
            plan.predictor_fault_at(decision_time)
            if plan is not None and self.prediction_enabled
            else None
        )
        if injected in ("exception", "timeout"):
            self._degrade(
                result,
                tracer,
                DegradationEvent(
                    time=decision_time,
                    kind=f"predictor-{injected}",
                    request_index=index,
                    detail="injected fault; planning without prediction",
                ),
            )
            return []
        if injected == "garbage":
            # An out-of-range forecast, fed through the same validation
            # path a real garbage predictor would hit.
            predictions: list[PredictedRequest] = [
                PredictedRequest(
                    arrival=decision_time,
                    type_id=len(trace.tasks),
                    deadline=1.0,
                )
            ]
        else:
            try:
                predictions = list(
                    self.predictor.predict_horizon(
                        trace, index, self.config.lookahead
                    )
                )
            except Exception as exc:  # noqa: BLE001 - degrade, don't die
                self._degrade(
                    result,
                    tracer,
                    DegradationEvent(
                        time=decision_time,
                        kind="predictor-exception",
                        request_index=index,
                        detail=f"{type(exc).__name__}: {exc}",
                    ),
                )
                return []
        valid: list[PredictedRequest] = []
        for prediction in predictions:
            problem = self._prediction_problem(trace, prediction)
            if problem is None:
                valid.append(prediction)
            else:
                self._degrade(
                    result,
                    tracer,
                    DegradationEvent(
                        time=decision_time,
                        kind="predictor-garbage",
                        request_index=index,
                        detail=problem,
                    ),
                )
        return valid

    def _drain_predictor_events(
        self,
        result: SimulationResult,
        time: float,
        request_index: int | None,
        tracer: Tracer,
    ) -> None:
        """Convert buffered predictor reactions into timestamped events.

        Duck-typed on ``drain_events``, mirroring
        :meth:`_drain_strategy_events`: the drift wrapper
        (:class:`~repro.predict.drift.DriftingPredictor`) queues
        ``(kind, detail)`` pairs — drift detections, retrains, the final
        fallback — which become
        :class:`~repro.faults.events.DegradationEvent` records anchored
        at the activation that settled the offending forecast.
        """
        drain = getattr(self.predictor, "drain_events", None)
        if drain is None:
            return
        for kind, detail in drain():
            self._degrade(
                result,
                tracer,
                DegradationEvent(
                    time=time,
                    kind=kind,
                    request_index=request_index,
                    detail=detail,
                ),
            )

    @staticmethod
    def _prediction_problem(
        trace: Trace, prediction: PredictedRequest
    ) -> str | None:
        """Why a forecast is unusable, or ``None`` if it is fine."""
        if not 0 <= prediction.type_id < len(trace.tasks):
            return (
                f"predicted type {prediction.type_id} outside the task set "
                f"(0..{len(trace.tasks) - 1})"
            )
        if not math.isfinite(prediction.arrival):
            return f"non-finite predicted arrival {prediction.arrival}"
        if not math.isfinite(prediction.deadline) or prediction.deadline <= 0:
            return f"invalid predicted deadline {prediction.deadline}"
        return None

    @staticmethod
    def _drain_strategy_events(
        admission: AdmissionController,
        result: SimulationResult,
        time: float,
        request_index: int | None,
        tracer: Tracer,
    ) -> None:
        """Convert buffered watchdog degradations into timestamped events.

        Duck-typed on ``drain_events`` so any strategy wrapper (not just
        :class:`~repro.faults.watchdog.SolverWatchdog`) can report.
        """
        drain = getattr(admission.strategy, "drain_events", None)
        if drain is None:
            return
        for kind, detail in drain():
            Simulator._degrade(
                result,
                tracer,
                DegradationEvent(
                    time=time,
                    kind=kind,
                    request_index=request_index,
                    detail=detail,
                ),
            )

    def _verify(self, trace: Trace, result: SimulationResult) -> None:
        """Replay the execution log through the independent invariant
        verifier; raise on any violation (see ``SimulationConfig.verify``)."""
        # Imported lazily to keep the sim package import-light (the
        # analysis package is optional at simulation time).
        from repro.analysis.invariants import VerificationError, verify_result

        overhead = (
            self.config.prediction_overhead
            if self.prediction_enabled and self.config.prediction_overhead > 0
            else 0.0
        )
        report = verify_result(
            trace,
            self.platform,
            result,
            expected_overhead=overhead,
            faults=self.config.fault_plan,
        )
        result.verification = report
        if not self.config.collect_execution_log:
            result.execution_log = []
        if not report.ok:
            raise VerificationError(report)

    def _predicted_view(
        self,
        trace: Trace,
        prediction: PredictedRequest,
        decision_time: float,
        offset: int = 0,
    ) -> PlannedTask:
        """Convert a prediction into the RM's planning task."""
        if not 0 <= prediction.type_id < len(trace.tasks):
            raise ValueError(
                f"predicted type {prediction.type_id} outside the task set"
            )
        arrival = max(prediction.arrival, decision_time)
        return PlannedTask(
            job_id=PREDICTED_JOB_ID + offset,
            task=trace.tasks[prediction.type_id],
            absolute_deadline=arrival + prediction.deadline,
            is_predicted=True,
            arrival=arrival,
        )


def simulate(
    trace: Trace,
    platform: Platform,
    strategy: MappingStrategy | str,
    predictor: Predictor | str | None = None,
    config: SimulationConfig | None = None,
    *,
    fault_plan: "FaultPlan | None" = None,
    tracer: TraceOptions | None = None,
    verify: bool | None = None,
    clock: Clock | None = None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`.

    ``strategy`` and ``predictor`` may be registry names::

        simulate(trace, platform, "heuristic", "oracle")

    The common :class:`SimulationConfig` knobs are also accepted directly
    (the same keyword family :func:`~repro.experiments.runner.run_matrix`
    takes)::

        simulate(trace, platform, "heuristic", "oracle",
                 fault_plan=plan, tracer=TraceOptions(), verify=True)

    A keyword given here overrides the corresponding field of ``config``.
    """
    config = config or SimulationConfig()
    overrides: dict[str, object] = {}
    if fault_plan is not None:
        overrides["fault_plan"] = fault_plan
    if tracer is not None:
        overrides["tracer"] = tracer
    if verify is not None:
        overrides["verify"] = verify
    if clock is not None:
        overrides["clock"] = clock
    if overrides:
        config = replace(config, **overrides)
    return Simulator(platform, strategy, predictor, config).run(trace)
