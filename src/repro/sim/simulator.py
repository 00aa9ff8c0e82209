"""The trace-replay simulator.

Drives one :class:`~repro.workload.trace.Trace` through an
:class:`~repro.core.admission.AdmissionController` on a
:class:`~repro.model.platform.Platform`.  Each arrival is one
:class:`~repro.sim.step.AdmissionStep` — the RM activation the live
service (:class:`~repro.serve.server.AdmissionEngine`) runs too:

1. advance platform execution to the request's arrival, applying any
   outage boundary on the way (displaced jobs are re-admitted through
   the step's ``remap``, or evicted);
2. query the predictor for the next request (charging the configured
   prediction overhead as a decision delay, Sec. 5.5);
3. build the RM context (``S-bar`` = active jobs + new arrival +
   predicted task) and run admission;
4. apply the resulting mapping (migrations, aborts) or leave the old,
   still-feasible plan in force on rejection.

Around the step the simulator keeps the trace-level bookkeeping — the
outage walk, degradation and activation records, result totals,
metrics — and, after the last arrival, drains the platform to
completion.

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
from repro.faults.events import DegradationEvent
from repro.model.platform import Platform
from repro.obs.events import (
    NULL_TRACER,
    CollectingTracer,
    TraceOptions,
    Tracer,
    monotonic_now,
)
from repro.obs.metrics import MetricsRegistry
from repro.predict.base import NullPredictor, Predictor
from repro.sim.result import ActivationRecord, SimulationResult
from repro.sim.state import PlatformState
from repro.sim.step import AdmissionStep
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
    """

    prediction_overhead: float = 0.0
    charge_unstarted_migration: bool = False
    collect_records: bool = False
    lookahead: int = 1
    collect_execution_log: bool = False
    verify: bool = False
    fault_plan: "FaultPlan | None" = None
    tracer: TraceOptions | None = None

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
                    step, result, etime, ekind, resource, tracer
                )
            state.advance(until)

        step = AdmissionStep(
            state,
            admission,
            self.predictor,
            advance=advance_to,
            degrade=lambda event: self._degrade(result, tracer, event),
            lookahead=self.config.lookahead,
            prediction_overhead=self.config.prediction_overhead,
            fault_plan=plan,
            tracer=tracer,
        )
        for index, request in enumerate(trace):
            made = step.decide(trace, index, step.catch_up(request.arrival))
            outcome = made.outcome
            result.prediction_overhead_total += made.overhead
            result.solver_calls_total += outcome.solver_calls
            if metrics is not None:
                metrics.observe(
                    "sim/context_size",
                    made.context_size,
                    bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
                )
                metrics.observe(
                    "sim/decision_latency",
                    made.decision_time - request.arrival,
                )
                metrics.gauge_max(
                    "sim/peak_active_jobs", float(len(state.jobs))
                )
            if outcome.admitted:
                result.accepted.append(index)
                if outcome.used_prediction:
                    result.predictions_used += 1
            else:
                result.rejected.append(index)
            if self.config.collect_records:
                result.records.append(
                    ActivationRecord(
                        request_index=index,
                        arrival=request.arrival,
                        decision_time=made.decision_time,
                        admitted=outcome.admitted,
                        used_prediction=outcome.used_prediction,
                        had_prediction=bool(made.predictions),
                        solver_calls=outcome.solver_calls,
                        context_size=made.context_size,
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

        Counters sum across matrix cells (ints stay ints; energies
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
        step: AdmissionStep,
        result: SimulationResult,
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
        state = step.state
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
            outcome = step.remap(etime, job)
            result.solver_calls_total += outcome.solver_calls
            if outcome.admitted:
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
    if overrides:
        config = replace(config, **overrides)
    return Simulator(platform, strategy, predictor, config).run(trace)
