"""One RM activation: the admission step shared by simulator and service.

The paper's resource manager does one thing per arrival (Sec. 3-4):
query the predictor, build ``S-bar`` — the unfinished admitted jobs,
the new request and the predicted task(s) — solve it, retry without the
prediction if that plan is infeasible, and apply the real part of the
resulting mapping.  :class:`AdmissionStep` is that activation, written
once for :class:`~repro.sim.simulator.Simulator` and
:class:`~repro.serve.server.AdmissionEngine`.  The two differ only in
where time and requests come from — a finite
:class:`~repro.workload.trace.Trace` or a growing
:class:`~repro.serve.server.RequestLog` (both a :class:`RequestSource`),
their own ``advance(until)`` (the simulator walks outage boundaries,
the service completes tenant jobs) — and in where degradations go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from repro.core.admission import AdmissionController, AdmissionOutcome
from repro.core.context import PREDICTED_JOB_ID, PlannedTask, RMContext
from repro.faults.events import DegradationEvent
from repro.model.request import PredictedRequest, Request
from repro.model.task import TaskType
from repro.obs.events import NULL_TRACER, Tracer
from repro.predict.base import NullPredictor, Predictor
from repro.sim.state import JobState, PlatformState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

__all__ = ["AdmissionStep", "RequestSource", "StepResult"]


class RequestSource(Protocol):
    """The request stream one step reads: a trace, or the live log."""

    @property
    def tasks(self) -> Sequence[TaskType]: ...

    def task_of(self, request: Request) -> TaskType: ...

    def __len__(self) -> int: ...

    def __getitem__(self, index: int) -> Request: ...


@dataclass(frozen=True)
class StepResult:
    """What one activation decided: ``predictions`` are the validated
    forecasts offered to the RM, ``overhead`` the prediction delay
    already included in ``decision_time``."""

    outcome: AdmissionOutcome
    decision_time: float
    predictions: list[PredictedRequest]
    context_size: int
    overhead: float


class AdmissionStep:
    """The per-arrival RM activation (see the module docstring).

    ``advance(until)`` moves platform execution forward (it must end
    with ``state.advance(until)``); ``degrade`` receives every
    :class:`~repro.faults.events.DegradationEvent` — predictor faults,
    drift-wrapper reactions and watchdog fallbacks alike.  With a
    ``tracer``, the step emits ``predictor-call`` and
    ``admission-accept``/``admission-reject`` events between the
    degradations and the mapping's migration events (DESIGN.md §11).
    """

    def __init__(
        self,
        state: PlatformState,
        admission: AdmissionController,
        predictor: Predictor,
        *,
        advance: Callable[[float], None],
        degrade: Callable[[DegradationEvent], None],
        lookahead: int = 1,
        prediction_overhead: float = 0.0,
        fault_plan: "FaultPlan | None" = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.state = state
        self.admission = admission
        self.predictor = predictor
        self.advance = advance
        self.degrade = degrade
        self.lookahead = lookahead
        self.prediction_overhead = prediction_overhead
        self.fault_plan = fault_plan
        self.tracer = tracer

    @property
    def prediction_enabled(self) -> bool:
        """Whether a real (non-null) predictor is configured."""
        return not isinstance(self.predictor, NullPredictor)

    def catch_up(self, arrival: float) -> float:
        """Advance to the decision time of a request arriving at
        ``arrival`` and return it.

        With a decision overhead, the previous activation may have
        finished *after* this request arrived; the RM handles arrivals
        in order, so this decision starts no earlier.
        """
        decision_time = max(arrival, self.state.time)
        self.advance(decision_time)
        return decision_time

    def decide(
        self,
        requests: RequestSource,
        index: int,
        decision_time: float,
        *,
        predict: bool = True,
    ) -> StepResult:
        """Run admission for ``requests[index]`` at ``decision_time``.

        ``predict=False`` skips the predictor query (the service's
        post-reprovision cooldown); queued predictor events still drain.
        """
        request = requests[index]
        task = requests.task_of(request)
        query = predict and self.prediction_enabled
        predictions = (
            self._query_predictor(requests, index, decision_time)
            if query
            else []
        )
        self._drain_events(self.predictor, decision_time, index)
        tracer = self.tracer
        if tracer.enabled and query:
            tracer.emit(
                "predictor-call",
                time=decision_time,
                request_index=index,
                detail=type(self.predictor).__name__,
                data=(("n_forecasts", len(predictions)),),
            )
        overhead = 0.0
        if self.prediction_enabled and self.prediction_overhead > 0:
            overhead = self.prediction_overhead
            decision_time += overhead
            self.advance(decision_time)

        tasks = [
            *self.state.active_views(),
            PlannedTask(
                job_id=request.index,
                task=task,
                absolute_deadline=request.absolute_deadline,
            ),
        ]
        tasks.extend(
            self._predicted_view(requests, prediction, decision_time, offset)
            for offset, prediction in enumerate(predictions)
        )
        context = self._context(decision_time, tasks)
        outcome = self.admission.decide(context)
        self._drain_events(self.admission.strategy, decision_time, index)
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
        if outcome.admitted:
            self.state.admit(request, task)
            self._apply(outcome)
        return StepResult(
            outcome=outcome,
            decision_time=decision_time,
            predictions=predictions,
            context_size=len(context.tasks),
            overhead=overhead,
        )

    def remap(
        self, time: float, displaced: JobState | None = None
    ) -> AdmissionOutcome:
        """Re-solve the active mapping at ``time`` (the platform's time).

        With ``displaced`` — a job an outage knocked off its resource —
        the job joins ``S-bar`` and is readmitted if the RM finds a
        feasible mapping; without it this is the service's reprovision
        pass.  No prediction is involved either way.
        """
        views = self.state.active_views()
        if displaced is not None:
            views.append(displaced.planned_view())
        outcome = self.admission.remap(self._context(time, views))
        self._drain_events(self.admission.strategy, time, None)
        if outcome.admitted:
            if displaced is not None:
                self.state.readmit(displaced)
            self._apply(outcome)
        return outcome

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _context(self, time: float, tasks: list[PlannedTask]) -> RMContext:
        state = self.state
        return RMContext(
            time=time,
            platform=state.platform,
            tasks=tuple(tasks),
            charge_unstarted_migration=state.charge_unstarted_migration,
            down_resources=frozenset(state.down),
        )

    def _apply(self, outcome: AdmissionOutcome) -> None:
        """Apply an accepted decision's mapping of the real jobs."""
        assert outcome.decision is not None
        self.state.apply_mapping(
            {
                job_id: resource
                for job_id, resource in outcome.decision.mapping.items()
                if job_id < PREDICTED_JOB_ID
            }
        )

    def _query_predictor(
        self, requests: RequestSource, index: int, decision_time: float
    ) -> list[PredictedRequest]:
        """Query the predictor; injected faults and real misbehaviour
        (exceptions, invalid forecasts) both degrade to planning without
        the offending forecast (the paper's no-prediction path)."""
        plan = self.fault_plan
        injected = (
            None if plan is None else plan.predictor_fault_at(decision_time)
        )
        if injected in ("exception", "timeout"):
            self.degrade(
                DegradationEvent(
                    time=decision_time,
                    kind=f"predictor-{injected}",
                    request_index=index,
                    detail="injected fault; planning without prediction",
                )
            )
            return []
        if injected == "garbage":
            # An out-of-range forecast, fed through the same validation
            # path a real garbage predictor would hit.
            predictions = [
                PredictedRequest(
                    arrival=decision_time,
                    type_id=len(requests.tasks),
                    deadline=1.0,
                )
            ]
        else:
            try:
                predictions = list(
                    self.predictor.predict_horizon(
                        requests,  # type: ignore[arg-type]
                        index,
                        self.lookahead,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - degrade, don't die
                self.degrade(
                    DegradationEvent(
                        time=decision_time,
                        kind="predictor-exception",
                        request_index=index,
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
                return []
        valid: list[PredictedRequest] = []
        for prediction in predictions:
            problem = self._prediction_problem(requests, prediction)
            if problem is None:
                valid.append(prediction)
            else:
                self.degrade(
                    DegradationEvent(
                        time=decision_time,
                        kind="predictor-garbage",
                        request_index=index,
                        detail=problem,
                    )
                )
        return valid

    @staticmethod
    def _prediction_problem(
        requests: RequestSource, prediction: PredictedRequest
    ) -> str | None:
        """Why a forecast is unusable, or ``None`` if it is fine."""
        n_tasks = len(requests.tasks)
        if not 0 <= prediction.type_id < n_tasks:
            return (
                f"predicted type {prediction.type_id} outside the task set "
                f"(0..{n_tasks - 1})"
            )
        if not math.isfinite(prediction.arrival):
            return f"non-finite predicted arrival {prediction.arrival}"
        if not math.isfinite(prediction.deadline) or prediction.deadline <= 0:
            return f"invalid predicted deadline {prediction.deadline}"
        return None

    @staticmethod
    def _predicted_view(
        requests: RequestSource,
        prediction: PredictedRequest,
        decision_time: float,
        offset: int,
    ) -> PlannedTask:
        """Convert a validated forecast into the RM's planning task."""
        arrival = max(prediction.arrival, decision_time)
        return PlannedTask(
            job_id=PREDICTED_JOB_ID + offset,
            task=requests.tasks[prediction.type_id],
            absolute_deadline=arrival + prediction.deadline,
            is_predicted=True,
            arrival=arrival,
        )

    def _drain_events(
        self, source: object, time: float, request_index: int | None
    ) -> None:
        """Turn buffered ``(kind, detail)`` reactions into degradations.

        Duck-typed on ``drain_events``, so any strategy wrapper (e.g.
        :class:`~repro.faults.watchdog.SolverWatchdog`) or predictor
        wrapper (e.g. :class:`~repro.predict.drift.DriftingPredictor`)
        can report.
        """
        drain = getattr(source, "drain_events", None)
        if drain is None:
            return
        for kind, detail in drain():
            self.degrade(
                DegradationEvent(
                    time=time,
                    kind=kind,
                    request_index=request_index,
                    detail=detail,
                )
            )
