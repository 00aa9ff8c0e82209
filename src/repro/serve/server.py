"""The live admission daemon: the simulator's engine behind a socket.

One :class:`AdmissionEngine` holds exactly the objects a
:class:`~repro.sim.simulator.Simulator` run holds — a
:class:`~repro.sim.state.PlatformState`, an
:class:`~repro.core.admission.AdmissionController` over a registry
strategy, an (optional) predictor — but consumes an *open-ended* stream
of per-tenant requests instead of a finite
:class:`~repro.workload.trace.Trace`.  Each admit runs the simulator's
own RM activation, :class:`~repro.sim.step.AdmissionStep` (decision
time, prediction overhead, ``S-bar`` construction, mapping
application), over a :class:`RequestLog`; the engine adds only the
live-service layer around it — arrival stamping, quotas, the
reprovision cooldown, depository scoring, ``serve/*`` metrics.  So the
same declared-arrival stream produces the same accept/reject sequence
through either front end by construction; the sim/live parity suite
smoke-checks it end to end over the socket.

:class:`AdmissionServer` wraps the engine in an asyncio daemon speaking
the NDJSON protocol of :mod:`repro.serve.protocol`:

* per-tenant bounded admission queues — a tenant whose backlog is full
  gets an explicit ``"shed"`` response instead of unbounded buffering;
* per-tenant active-job quotas — ``"over-quota"`` structured rejects;
* live degradation via the PR-4 fault machinery: the strategy can be
  wrapped in a :class:`~repro.faults.watchdog.SolverWatchdog`
  (``solver_wall_budget``), predictor misbehaviour degrades to the
  paper's no-prediction path, and every degradation is counted;
* an Elasecutor-style :class:`~repro.serve.depository.UsageDepository`
  that scores forecasts against actual arrivals and triggers a
  reprovision pass (prediction cooldown + re-solve of the active
  mapping) when the windowed error rate crosses its threshold;
* live :class:`~repro.obs.metrics.MetricsRegistry` export — the
  ``metrics`` control op returns a snapshot, and a plain
  ``GET /metrics`` on the same port answers with a Prometheus-style
  text exposition;
* crash safety (DESIGN.md §15): with ``ServeConfig.journal_path`` set,
  every operation is recorded in a write-ahead
  :class:`~repro.serve.journal.AdmissionJournal` (intent before the
  decision, outcome before the reply), a restarted server replays the
  journal to the exact pre-crash engine state
  (:func:`recover_engine` — bit-identical fingerprint in replay
  mode), and client-supplied idempotency keys make retried ops return
  the original decision instead of re-admitting;
* wire-level fault injection: an optional
  :class:`~repro.faults.serve.ServeFaultPlan` mutilates the response
  path (injected latency, truncated/garbage NDJSON, mid-frame
  connection aborts) and the journal (write failures) on a seeded,
  ordinal-indexed schedule — the transport shim the chaos harness
  (``repro chaos``) drives.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from hashlib import sha256
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.admission import AdmissionController, AdmissionOutcome
from repro.core.base import MappingStrategy
from repro.faults.events import DegradationEvent
from repro.model.platform import Platform
from repro.model.request import PredictedRequest, Request
from repro.model.task import TaskType
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.predict.base import NullPredictor, Predictor
from repro.serve.clock import WallClock
from repro.serve.depository import REPROVISION_COOLDOWN, UsageDepository
from repro.serve.journal import (
    AdmissionJournal,
    ServeJournalError,
    service_fingerprint,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    AdmitRequest,
    AdmitResponse,
    ControlRequest,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_payload,
)
from repro.sim.state import PlatformState
from repro.sim.step import AdmissionStep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.serve import ServeFaultPlan

__all__ = [
    "AdmissionEngine",
    "AdmissionServer",
    "RecoveryReport",
    "RequestLog",
    "ServeConfig",
    "prometheus_exposition",
    "recover_engine",
]

_HISTOGRAM_BOUNDS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)

#: Admission statuses the idempotency cache remembers.  Backpressure
#: outcomes (shed / over-quota) are transient by design: a retry with
#: the same key *should* be re-decided once capacity frees up.
_CACHEABLE_STATUSES = frozenset({"accepted", "rejected"})

#: Global bound on the dispatch queue across all tenants.
_DISPATCH_DEPTH = 1024


@dataclass(frozen=True)
class ServeConfig:
    """Service knobs (the live analogue of ``SimulationConfig``).

    Attributes
    ----------
    host, port:
        Bind address; port 0 picks a free port (``AdmissionServer.port``
        reports the actual one after :meth:`AdmissionServer.start`).
    mode:
        ``"live"`` stamps undeclared arrivals from a
        :class:`~repro.serve.clock.WallClock` scaled by ``speed``;
        ``"replay"`` reads no wall clock and requires every admit frame
        to declare its arrival — the mode the parity suite uses to
        compare against ``simulate()``.  Either way decisions run on
        the platform state's logical time.
    speed:
        Simulation time units per wall second in live mode (time
        compression; ignored in replay mode).
    queue_depth:
        Per-tenant bound on requests queued for dispatch; the excess is
        shed with an explicit response (backpressure, not buffering).
    tenant_quota:
        Maximum unfinished admitted jobs one tenant may hold; admits
        beyond it get a structured ``"over-quota"`` reject.  ``None``
        disables quotas.
    prediction_overhead, lookahead, charge_unstarted_migration:
        Exactly the :class:`~repro.sim.simulator.SimulationConfig`
        semantics, applied per live activation.
    solver_wall_budget:
        Optional wall-clock budget (seconds) per primary solve; set, it
        wraps the strategy in an enforcing
        :class:`~repro.faults.watchdog.SolverWatchdog` over
        ``solver_fallback``.
    error_window, error_threshold, min_observations:
        Forwarded to the :class:`~repro.serve.depository.UsageDepository`
        reprovision trigger.  After a reprovision pass, predictions are
        suppressed for
        :data:`~repro.serve.depository.REPROVISION_COOLDOWN` decisions
        (the no-prediction fallback path).
    journal_path:
        Write-ahead admission journal file (DESIGN.md §15); ``None``
        (default) disables durability.  An existing journal from the
        same service (matching :func:`~repro.serve.journal.service_fingerprint`)
        is replayed on construction — the crash-recovery path.
    journal_fsync:
        Whether every journal append is fsynced (default on: durable
        against power loss, not just process death).  An admit whose
        *intent* record cannot be written is refused with
        ``journal-failed`` (fail-stop); outcome-append failures are
        queued for re-append and flagged ``"durable": false`` — the
        decision already happened.
    snapshot_every:
        Decisions between journal snapshot records (engine fingerprint
        + metrics + depository — recovery verification waypoints);
        ``0`` disables snapshots.
    idempotency_cache:
        Bound on remembered idempotency keys (LRU beyond it).
    """

    host: str = "127.0.0.1"
    port: int = 0
    mode: str = "live"
    speed: float = 1.0
    queue_depth: int = 64
    tenant_quota: int | None = None
    prediction_overhead: float = 0.0
    lookahead: int = 1
    charge_unstarted_migration: bool = False
    solver_wall_budget: float | None = None
    solver_fallback: str = "heuristic"
    error_window: int = 32
    error_threshold: float = 0.5
    min_observations: int = 8
    journal_path: str | None = None
    journal_fsync: bool = True
    snapshot_every: int = 64
    idempotency_cache: int = 4096

    def __post_init__(self) -> None:
        if self.mode not in ("live", "replay"):
            raise ValueError(
                f"mode must be 'live' or 'replay', got {self.mode!r}"
            )
        if self.speed <= 0:
            raise ValueError(f"speed must be > 0, got {self.speed}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ValueError(
                f"tenant_quota must be >= 1, got {self.tenant_quota}"
            )
        if self.lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {self.lookahead}")
        if self.prediction_overhead < 0:
            raise ValueError(
                "prediction_overhead must be >= 0, "
                f"got {self.prediction_overhead}"
            )
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.idempotency_cache < 1:
            raise ValueError(
                "idempotency_cache must be >= 1, "
                f"got {self.idempotency_cache}"
            )


class RequestLog:
    """The live stream's stand-in for a :class:`~repro.workload.trace.Trace`.

    Online predictors consume a trace *prefix*; the log grows one
    admitted-or-rejected request at a time and presents itself one
    longer than what has arrived (``len = observed + 1``), so
    :meth:`~repro.predict.base.OnlinePredictor.predict` at the newest
    index forecasts the next, still-unseen request.  A ``final`` frame
    closes the log, after which the length is exact and predictors
    return ``None`` at the tail — byte-for-byte the simulator's
    end-of-trace behaviour (the hinge of the parity tests).

    Oracle-style predictors that read ``trace[index + 1]`` ground truth
    simply raise ``IndexError`` here; the engine degrades that to the
    no-prediction path, so configuring an emulated predictor on a live
    server is safe but pointless.
    """

    def __init__(self, tasks: Sequence[TaskType]) -> None:
        if not tasks:
            raise ValueError("the service catalog needs at least one task")
        self.tasks = tuple(tasks)
        self.requests: list[Request] = []
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def n_resources(self) -> int:
        return self.tasks[0].n_resources

    def append(self, request: Request) -> None:
        if self._closed:
            raise RuntimeError("request log is closed (a 'final' frame "
                               "already ended the stream)")
        self.requests.append(request)

    def close(self) -> None:
        self._closed = True

    def task_of(self, request: Request) -> TaskType:
        return self.tasks[request.type_id]

    def __len__(self) -> int:
        return len(self.requests) + (0 if self._closed else 1)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, index: int) -> Request:
        return self.requests[index]


class AdmissionEngine:
    """The synchronous decision core shared by server and smoke driver.

    Runs the shared :class:`~repro.sim.step.AdmissionStep` on an
    open-ended stream; see the module docstring for what it adds.
    """

    def __init__(
        self,
        platform: Platform,
        strategy: MappingStrategy,
        predictor: Predictor | None,
        tasks: Sequence[TaskType],
        config: ServeConfig,
    ) -> None:
        self.platform = platform
        self.config = config
        self.strategy = strategy
        self.predictor = predictor or NullPredictor()
        self.predictor.reset()
        self.state = PlatformState(
            platform,
            charge_unstarted_migration=config.charge_unstarted_migration,
        )
        # Live mode stamps undeclared arrivals from the wall clock;
        # replay mode reads only the platform state's logical time.
        self._wall = WallClock(config.speed) if config.mode == "live" else None
        self.log = RequestLog(tasks)
        self.metrics = MetricsRegistry()
        self.depository = UsageDepository(
            error_window=config.error_window,
            error_threshold=config.error_threshold,
            min_observations=config.min_observations,
        )
        self.decisions = 0
        self._job_tenants: dict[int, str] = {}
        self._last_arrival = 0.0
        self._pending_forecast: PredictedRequest | None = None
        self._cooldown = 0
        self._step = AdmissionStep(
            self.state,
            AdmissionController(strategy),
            self.predictor,
            advance=self._advance,
            degrade=self._degrade,
            lookahead=config.lookahead,
            prediction_overhead=config.prediction_overhead,
        )

    @property
    def catalog(self) -> tuple[TaskType, ...]:
        return self.log.tasks

    # ------------------------------------------------------------------
    # Decision path
    # ------------------------------------------------------------------

    def decide(self, frame: AdmitRequest) -> AdmitResponse:
        """Make one admission decision (dispatcher thread/task only)."""
        if not 0 <= frame.task < len(self.catalog):
            raise ValueError(
                f"task {frame.task} outside the service catalog "
                f"(0..{len(self.catalog) - 1})"
            )
        arrival = frame.arrival
        if arrival is None:
            arrival = self._now()
        # The stream is totally ordered by the dispatcher; a stale wall
        # reading or out-of-order declaration never moves time backwards.
        arrival = max(arrival, self._last_arrival)
        self._last_arrival = arrival

        if self._cooldown > 0:
            self._cooldown -= 1
        decision_time = self._step.catch_up(arrival)

        # Quota is judged *after* execution catches up to the arrival, so
        # jobs that finished in the meantime free their slots first.
        quota = self.config.tenant_quota
        if (
            quota is not None
            and self.depository.active_jobs(frame.tenant) >= quota
        ):
            return self._refuse(
                frame,
                "over-quota",
                detail=(
                    f"tenant {frame.tenant!r} holds "
                    f"{self.depository.active_jobs(frame.tenant)} active "
                    f"job(s), quota is {quota}"
                ),
                arrival=arrival,
            )

        index = len(self.log.requests)
        request = Request(
            index=index,
            arrival=arrival,
            type_id=frame.task,
            deadline=frame.deadline,
        )
        forecast = self._pending_forecast
        if forecast is not None:
            self.depository.score_forecast(
                predicted_type=forecast.type_id,
                actual_type=request.type_id,
                predicted_arrival=forecast.arrival,
                actual_arrival=request.arrival,
            )
            self._pending_forecast = None
        self.log.append(request)
        if frame.final:
            self.log.close()

        made = self._step.decide(
            self.log, index, decision_time, predict=self._cooldown == 0
        )
        outcome = made.outcome
        decision_time = made.decision_time
        if outcome.admitted:
            self._job_tenants[index] = frame.tenant
            status = "accepted"
        else:
            status = "rejected"
        if made.predictions:
            self._pending_forecast = made.predictions[0]

        self.decisions += 1
        self.depository.record_decision(frame.tenant, status, decision_time)
        self._record_metrics(status, decision_time - arrival, outcome)
        self._maybe_reprovision(decision_time)
        return AdmitResponse(
            status=status,
            tenant=frame.tenant,
            job_id=request.index,
            decision_time=decision_time,
            used_prediction=outcome.used_prediction,
            solver_calls=outcome.solver_calls,
            id=frame.id,
            arrival=arrival,
        )

    def record_shed(
        self, tenant: str, correlation: str | int | None = None
    ) -> AdmitResponse:
        """A request refused at the door because the tenant's queue is
        full (counted like any decision, but the solver never runs)."""
        frame = AdmitRequest(
            tenant=tenant, task=0, deadline=1.0, id=correlation
        )
        return self._refuse(
            frame, "shed", detail="per-tenant admission queue is full"
        )

    def _refuse(
        self,
        frame: AdmitRequest,
        status: str,
        *,
        detail: str,
        arrival: float | None = None,
    ) -> AdmitResponse:
        decision_time = self.state.time
        self.decisions += 1
        self.depository.record_decision(frame.tenant, status, decision_time)
        self._record_metrics(status, 0.0, None)
        return AdmitResponse(
            status=status,
            tenant=frame.tenant,
            decision_time=decision_time,
            id=frame.id,
            detail=detail,
            arrival=arrival,
        )

    def drain(self) -> int:
        """Run the platform to completion (shutdown path); returns how
        many jobs finished during the drain."""
        completed = self.state.advance(self.state.completion_horizon())
        self._complete(completed)
        return len(completed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _complete(self, jobs: list) -> None:
        for job in jobs:
            tenant = self._job_tenants.pop(job.job_id, None)
            if tenant is not None:
                self.depository.record_completion(tenant)
            self.metrics.inc("serve/completed")

    def _advance(self, until: float) -> None:
        self._complete(self.state.advance(until))

    def _now(self) -> float:
        """The arrival stamp of a frame that declares none."""
        wall = self._wall
        return wall.now() if wall is not None else self.state.time

    def _degrade(self, event: DegradationEvent) -> None:
        """Fold one degradation from the shared step into service state.

        Every degradation — predictor fault, drift-wrapper reaction
        (see :class:`~repro.predict.drift.DriftingPredictor`), watchdog
        fallback — counts in ``serve/degradations`` plus a per-kind
        counter.  A ``predictor-fallback`` additionally clears the
        depository's forecast-error window: the reprovision trigger must
        not fire later on the stale errors of a model that just took
        itself offline.  Everything here is a deterministic reaction to
        the request log, so a journal replay reproduces it bit-for-bit
        (metrics are outside the fingerprint; the window clear is inside
        and replays identically).
        """
        self.metrics.inc("serve/degradations")
        self.metrics.inc(f"serve/{event.kind.replace('-', '_')}")
        if event.kind == "predictor-fallback":
            self.depository.clear_error_window()

    def _record_metrics(
        self, status: str, latency: float, outcome: AdmissionOutcome | None
    ) -> None:
        self.metrics.inc("serve/requests")
        self.metrics.inc(f"serve/{status.replace('-', '_')}")
        if outcome is not None:
            self.metrics.inc("solver/calls", outcome.solver_calls)
        self.metrics.observe(
            "serve/decision_latency", latency, bounds=_HISTOGRAM_BOUNDS
        )
        self.metrics.gauge_max(
            "serve/peak_active_jobs", float(len(self.state.jobs))
        )

    def _maybe_reprovision(self, decision_time: float) -> None:
        """Elasecutor-style reaction to sustained prediction error: cool
        the predictor down and re-solve the active mapping."""
        if self._cooldown > 0 or not self.depository.should_reprovision():
            return
        self._cooldown = REPROVISION_COOLDOWN
        self.depository.mark_reprovisioned()
        self.metrics.inc("serve/reprovisions")
        if self.state.jobs:
            self._step.remap(decision_time)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Digest of the engine's replayable decision state.

        Covers exactly the state a journal replay reconstructs —
        platform state (``float.hex`` encoded, the PR 4 discipline),
        request log, depository (including the sliding error window),
        job→tenant map, pending forecast, cooldown — and deliberately
        *excludes* metrics: protocol errors and idempotent cache hits
        are live-path events a replay cannot (and need not) reproduce.
        A recovered server matching the pre-crash fingerprint is the
        chaos harness's central invariant.
        """
        digest = sha256()
        state = self.state
        digest.update(
            f"time:{float(state.time).hex()}|decisions:{self.decisions}".encode()
        )
        digest.update(
            (
                f"|energy:{float(state.total_energy).hex()},"
                f"{float(state.migration_energy).hex()},"
                f"{float(state.wasted_energy).hex()}"
                f"|migrations:{state.migration_count}"
                f"|aborts:{state.abort_count}"
                f"|finished:{len(state.finished)}"
            ).encode()
        )
        for job_id in sorted(state.jobs):
            job = state.jobs[job_id]
            digest.update(
                (
                    f"|job:{job_id}:{job.resource}:"
                    f"{float(job.remaining_fraction).hex()}:"
                    f"{int(job.started)}{int(job.running_non_preemptable)}:"
                    f"{float(job.pending_migration_time).hex()}:"
                    f"{float(job.energy_consumed).hex()}:"
                    f"{job.migrations}:{job.aborts}"
                ).encode()
            )
        digest.update(
            (
                f"|log:{len(self.log.requests)}:{int(self.log.closed)}"
                f"|last_arrival:{float(self._last_arrival).hex()}"
                f"|cooldown:{self._cooldown}"
            ).encode()
        )
        forecast = self._pending_forecast
        if forecast is not None:
            digest.update(
                (
                    f"|forecast:{forecast.type_id}:"
                    f"{float(forecast.arrival).hex()}:"
                    f"{float(forecast.deadline).hex()}"
                ).encode()
            )
        for job_id in sorted(self._job_tenants):
            digest.update(
                f"|tenant:{job_id}:{self._job_tenants[job_id]}".encode()
            )
        digest.update(b"|depository:")
        digest.update(
            json.dumps(self.depository.snapshot(), sort_keys=True).encode()
        )
        digest.update(
            (
                "|window:"
                + ",".join(
                    "1" if miss else "0"
                    for miss in self.depository.window_state()
                )
            ).encode()
        )
        return digest.hexdigest()

    def metrics_snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()

    def stats(self) -> dict:
        return {
            "mode": self.config.mode,
            "time": self.state.time,
            "clock": self._now(),
            "decisions": self.decisions,
            "active_jobs": len(self.state.jobs),
            "depository": self.depository.snapshot(),
        }


@dataclass
class RecoveryReport:
    """What a journal replay reconstructed (DESIGN.md §15).

    ``mismatches`` lists replayed decisions that diverged from the
    recorded ones — always empty under strict recovery, which raises
    instead.  ``idempotency`` maps recovered idempotency keys to their
    original response payloads so retried duplicates keep answering
    the original decision across the restart.
    """

    records: int = 0
    decisions: int = 0
    sheds: int = 0
    unacked: int = 0
    snapshots_checked: int = 0
    mismatches: list[str] = field(default_factory=list)
    idempotency: dict[str, dict] = field(default_factory=dict)
    #: (seq, arrival, response payload) of each re-decided unacked
    #: intent — the restarting server journals these outcomes *before*
    #: serving, so the next replay sees them in mutation order.
    unacked_results: list[tuple[int, float, dict]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "decisions": self.decisions,
            "sheds": self.sheds,
            "unacked": self.unacked,
            "snapshots_checked": self.snapshots_checked,
            "mismatches": list(self.mismatches),
            "idempotency_keys": len(self.idempotency),
            "ok": self.ok,
        }


def _frame_payload(frame: AdmitRequest) -> dict:
    """The journal's canonical encoding of one admit frame.

    The correlation ``id`` is deliberately dropped: it names a
    connection-lifetime conversation, not the operation, and replay
    must not depend on it.
    """
    payload: dict = {
        "tenant": frame.tenant,
        "task": frame.task,
        "deadline": frame.deadline,
    }
    if frame.arrival is not None:
        payload["arrival"] = frame.arrival
    if frame.idem is not None:
        payload["idem"] = frame.idem
    if frame.final:
        payload["final"] = True
    return payload


def _frame_from_payload(
    payload: dict, arrival: float | None
) -> AdmitRequest:
    declared = payload.get("arrival")
    if arrival is None and declared is not None:
        arrival = float(declared)
    return AdmitRequest(
        tenant=str(payload["tenant"]),
        task=int(payload["task"]),
        deadline=float(payload["deadline"]),
        arrival=arrival,
        idem=payload.get("idem"),
        final=bool(payload.get("final", False)),
    )


def _parse_arrival(encoded: object) -> float | None:
    if not isinstance(encoded, str):
        return None
    if encoded == "inf":
        return math.inf
    try:
        return float.fromhex(encoded)
    except ValueError:
        return None


def recover_engine(
    engine: AdmissionEngine,
    records: Sequence[dict],
    *,
    strict: bool = True,
) -> RecoveryReport:
    """Replay journal records through a *freshly constructed* engine.

    The engine is a deterministic fold over the dispatched operation
    stream, so replaying every record in journal order reconstructs
    the pre-crash state exactly — snapshots are verified as waypoints,
    not used as truncation points (online predictor state is a fold
    over the full request log and cannot be resumed mid-stream).

    Outcome records carry the server-stamped arrival, so a journal
    written in live mode still replays deterministically; only the
    :class:`~repro.serve.clock.WallClock` restarts (§15's bounded
    divergence).  A trailing intent without an outcome — the crash
    window — is re-decided: its client never received a response, so
    whatever the replay decides *becomes* the decision, and the
    client's idempotent retry will return it.

    ``strict`` raises :class:`~repro.serve.journal.ServeJournalError`
    on any divergence between recorded and replayed decisions; pass
    ``False`` (the server does, when a wall-budget watchdog makes
    solves machine-dependent) to collect mismatches in the report
    instead.
    """
    report = RecoveryReport()
    intents: dict[int, dict] = {}

    def diverged(message: str) -> None:
        if strict:
            raise ServeJournalError(message)
        report.mismatches.append(message)

    def replay_decision(
        frame_payload: dict, arrival: float | None
    ) -> AdmitResponse | None:
        frame = _frame_from_payload(frame_payload, arrival)
        try:
            return engine.decide(frame)
        except Exception:  # noqa: BLE001 - the original op failed too
            return None

    def remember(frame_payload: dict, response: AdmitResponse | None) -> None:
        idem = frame_payload.get("idem")
        if (
            isinstance(idem, str)
            and response is not None
            and response.status in _CACHEABLE_STATUSES
        ):
            report.idempotency[idem] = response.to_payload()

    for record in records:
        report.records += 1
        kind = record.get("k")
        seq = record.get("seq")
        if kind == "i":
            intents[int(seq)] = dict(record.get("frame") or {})
        elif kind == "d":
            frame_payload = intents.pop(int(seq), None)
            recorded = record.get("response") or {}
            if frame_payload is None:
                diverged(f"seq {seq}: outcome record without intent")
                continue
            replayed = replay_decision(
                frame_payload, _parse_arrival(record.get("arrival"))
            )
            report.decisions += 1
            if recorded.get("ok", True):
                if replayed is None:
                    diverged(
                        f"seq {seq}: recorded {recorded.get('status')!r} "
                        "but replay raised"
                    )
                elif (
                    replayed.status != recorded.get("status")
                    or replayed.job_id != recorded.get("job_id")
                ):
                    diverged(
                        f"seq {seq}: recorded "
                        f"{recorded.get('status')}/{recorded.get('job_id')} "
                        f"but replayed {replayed.status}/{replayed.job_id}"
                    )
            elif replayed is not None:
                diverged(
                    f"seq {seq}: recorded an error outcome but replay "
                    f"decided {replayed.status!r}"
                )
            remember(frame_payload, replayed)
        elif kind == "s":
            engine.record_shed(str(record.get("tenant")))
            report.sheds += 1
        elif kind == "snap":
            report.snapshots_checked += 1
            expected = record.get("engine_fingerprint")
            actual = engine.fingerprint()
            if expected != actual:
                diverged(
                    f"seq {seq}: snapshot fingerprint {expected} != "
                    f"replayed {actual}"
                )
    # The crash window: intents whose outcome never hit the disk.  The
    # client never saw a response, so replay's verdict becomes *the*
    # decision (idempotent retries will return it).
    for seq in sorted(intents):
        frame_payload = intents[seq]
        replayed = replay_decision(frame_payload, None)
        report.unacked += 1
        if replayed is not None:
            outcome = {
                k: v for k, v in replayed.to_payload().items() if k != "id"
            }
        else:
            outcome = error_payload(
                "internal-error",
                "replay of an unacknowledged intent raised",
            )
        report.unacked_results.append((seq, engine._last_arrival, outcome))
        remember(frame_payload, replayed)
    return report


def prometheus_exposition(snapshot: MetricsSnapshot) -> str:
    """Render one metrics snapshot as Prometheus text exposition.

    Metric names are mangled ``serve/accepted`` → ``repro_serve_accepted``;
    histograms expose cumulative ``_bucket{le=...}`` plus ``_sum`` and
    ``_count`` series, counters and gauges one sample each.
    """

    def mangle(name: str) -> str:
        return "repro_" + name.replace("/", "_").replace("-", "_")

    lines: list[str] = []
    for name, value in snapshot.counters.items():
        metric = mangle(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in snapshot.gauges.items():
        metric = mangle(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    for name, histogram in snapshot.histograms.items():
        metric = mangle(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(
            histogram.bounds, histogram.counts, strict=False
        ):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
        cumulative += histogram.counts[-1]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {histogram.total}")
        lines.append(f"{metric}_count {cumulative}")
    return "\n".join(lines) + "\n"


_STOP = object()


class AdmissionServer:
    """The asyncio daemon (see module docstring).

    ``strategy`` and ``predictor`` accept instances or registry names,
    exactly like :class:`~repro.sim.simulator.Simulator`.

    ``fault_plan`` arms the wire/journal fault-injection shim (chaos
    and fault tests only; ``None`` in production).
    """

    def __init__(
        self,
        platform: Platform,
        strategy: MappingStrategy | str,
        predictor: Predictor | str | None = None,
        *,
        tasks: Sequence[TaskType],
        config: ServeConfig | None = None,
        fault_plan: "ServeFaultPlan | None" = None,
    ) -> None:
        config = config or ServeConfig()
        strategy_label = (
            strategy if isinstance(strategy, str) else type(strategy).__name__
        )
        predictor_label = (
            "off"
            if predictor is None
            else (
                predictor
                if isinstance(predictor, str)
                else type(predictor).__name__
            )
        )
        if isinstance(strategy, str) or isinstance(predictor, str):
            from repro.registry import resolve_predictor, resolve_strategy

            if isinstance(strategy, str):
                strategy = resolve_strategy(strategy)
            if isinstance(predictor, str):
                predictor = resolve_predictor(predictor)
        if config.solver_wall_budget is not None:
            from repro.faults.watchdog import SolverWatchdog
            from repro.registry import resolve_strategy

            strategy = SolverWatchdog(
                strategy,
                resolve_strategy(config.solver_fallback),
                wall_budget=config.solver_wall_budget,
                enforce_budget=True,
            )
        self.config = config
        self.engine = AdmissionEngine(
            platform, strategy, predictor, tasks, config
        )
        self._server: asyncio.AbstractServer | None = None
        self._dispatch: asyncio.Queue = asyncio.Queue(
            maxsize=_DISPATCH_DEPTH
        )
        self._pending: dict[str, int] = {}
        self._dispatcher: asyncio.Task | None = None
        self._shutdown = asyncio.Event()
        self.port: int | None = None
        self._fault_plan = fault_plan
        self._responses = 0
        self._journal_appends = 0
        self._idem_cache: OrderedDict[str, dict] = OrderedDict()
        self._journal: AdmissionJournal | None = None
        self._next_seq = 0
        self.recovery: RecoveryReport | None = None
        if config.journal_path is not None:
            fingerprint = service_fingerprint(
                platform,
                tasks,
                config,
                strategy=strategy_label,
                predictor=predictor_label,
            )
            journal = AdmissionJournal(
                config.journal_path,
                fingerprint,
                fsync=config.journal_fsync,
                fault_hook=(
                    self._journal_fault_hook if fault_plan is not None else None
                ),
            )
            if journal.records:
                # Replay from genesis; strict unless a wall-budget
                # watchdog makes individual solves machine-dependent.
                self.recovery = recover_engine(
                    self.engine,
                    journal.records,
                    strict=config.solver_wall_budget is None,
                )
                for key, payload in self.recovery.idempotency.items():
                    self._remember(key, payload)
                # Unacked intents were re-decided during recovery;
                # journal their outcomes now, before any new op, so the
                # next replay sees them in mutation order.
                for seq, arrival, outcome in self.recovery.unacked_results:
                    if not journal.append_outcome(seq, arrival, outcome):
                        self.engine.metrics.inc("serve/journal_errors")
            self._journal = journal
            self._next_seq = journal.next_seq

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start dispatching (returns immediately)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    def request_shutdown(self) -> None:
        """Begin a clean shutdown (idempotent)."""
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`request_shutdown`),
        then drain queued work and the platform, and close."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        await self._dispatch.put((_STOP, None))
        assert self._dispatcher is not None
        await self._dispatcher
        self.engine.drain()
        if self._journal is not None:
            # Drain completions are not journaled (replay re-derives
            # them from the decision stream); just settle pending
            # appends and release the handle.
            self._journal.close()

    async def run(self) -> None:
        """Start and serve until shutdown (the CLI entry point)."""
        await self.start()
        await self.serve_until_shutdown()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            frame, future = await self._dispatch.get()
            if frame is _STOP:
                break
            # The dispatcher must survive anything _execute lets
            # through (e.g. a fault hook raising a non-OSError): an
            # unhandled exception here would kill the task silently and
            # hang every queued and future admit.
            try:
                payload = self._execute(frame)
            except Exception as exc:  # noqa: BLE001 - report, don't die
                self.engine.metrics.inc("serve/errors")
                payload = error_payload(
                    "internal-error",
                    f"{type(exc).__name__}: {exc}",
                    id=frame.id,
                )
            finally:
                self._pending[frame.tenant] -= 1
            if not future.done():
                future.set_result(payload)

    def _execute(self, frame: AdmitRequest) -> dict:
        """One admit op: idempotency check, write-ahead intent, decision,
        commit-before-reply outcome.  Synchronous, so the whole sequence
        is atomic on the single-threaded event loop — journal order *is*
        engine mutation order, which is what makes replay exact.
        """
        duplicate = self._duplicate(frame)
        if duplicate is not None:
            return duplicate
        journal = self._journal
        seq = self._next_seq
        self._next_seq += 1
        durable = True
        if journal is not None:
            # Write-ahead half: a frame whose intent cannot be journaled
            # is refused *before* any engine mutation — no decision
            # exists, so a retry after the journal recovers is fresh,
            # not a duplicate.
            if not journal.append_intent(seq, _frame_payload(frame)):
                self.engine.metrics.inc("serve/journal_errors")
                return error_payload(
                    "journal-failed",
                    "admission journal unavailable; retry later",
                    id=frame.id,
                )
        try:
            payload = self.engine.decide(frame).to_payload()
        except Exception as exc:  # noqa: BLE001 - report, don't die
            self.engine.metrics.inc("serve/errors")
            payload = error_payload(
                "internal-error",
                f"{type(exc).__name__}: {exc}",
                id=frame.id,
            )
        if journal is not None:
            record = {k: v for k, v in payload.items() if k != "id"}
            if not journal.append_outcome(
                seq, self.engine._last_arrival, record
            ):
                self.engine.metrics.inc("serve/journal_errors")
                durable = False
            self._maybe_snapshot()
        if (
            frame.idem is not None
            and payload.get("status") in _CACHEABLE_STATUSES
        ):
            self._remember(
                frame.idem, {k: v for k, v in payload.items() if k != "id"}
            )
        if not durable:
            payload["durable"] = False
        return payload

    def _duplicate(self, frame: AdmitRequest) -> dict | None:
        """The original decision for a retried idempotency key, marked
        ``"duplicate"``; ``None`` when the key is new or absent."""
        if frame.idem is None:
            return None
        cached = self._idem_cache.get(frame.idem)
        if cached is None:
            return None
        self.engine.metrics.inc("serve/idempotent_hits")
        payload = dict(cached)
        payload["duplicate"] = True
        if frame.id is not None:
            payload["id"] = frame.id
        return payload

    def _remember(self, key: str, payload: dict) -> None:
        cache = self._idem_cache
        cache[key] = payload
        cache.move_to_end(key)
        while len(cache) > self.config.idempotency_cache:
            cache.popitem(last=False)

    def _journal_fault_hook(self, record: dict) -> bool:
        # Keyed on a monotonically increasing append *attempt* ordinal,
        # not the record's own seq: a queued record retries with fresh
        # ordinals, so a bounded fault window always clears.  Keying on
        # the fixed seq would wedge the pending queue forever once a
        # queued record's seq landed inside a window.
        del record
        plan = self._fault_plan
        if plan is None:
            return False
        ordinal = self._journal_appends
        self._journal_appends += 1
        return plan.journal_fault_at(ordinal)

    def _maybe_snapshot(self) -> None:
        journal = self._journal
        every = self.config.snapshot_every
        if journal is None or every <= 0:
            return
        if self.engine.decisions == 0 or self.engine.decisions % every != 0:
            return
        wrote = journal.append_snapshot(
            self._next_seq - 1,
            self.engine.fingerprint(),
            metrics=self.engine.metrics_snapshot().to_dict(hex_floats=True),
            depository=self.engine.depository.snapshot(),
        )
        if not wrote:
            self.engine.metrics.inc("serve/journal_errors")

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
        """One NDJSON line; ``None`` when it exceeds the frame limit
        (the stream can no longer be framed reliably)."""
        try:
            return await reader.readline()
        except ValueError:
            return None

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            line = await self._read_line(reader)
            if line is None:
                self.engine.metrics.inc("serve/protocol_errors")
                writer.write(encode_frame(self._frame_too_large()))
                await writer.drain()
                return
            if line.startswith(b"GET "):
                await self._serve_http(line, reader, writer)
                return
            responses: asyncio.Queue = asyncio.Queue()
            pump = asyncio.create_task(self._response_pump(responses, writer))
            try:
                while line:
                    await self._handle_line(line, responses)
                    if self._shutdown.is_set():
                        break
                    line = await self._read_line(reader)
                    if line is None:
                        # Oversized frame: answer, then drop the
                        # connection — framing is gone past this point.
                        self.engine.metrics.inc("serve/protocol_errors")
                        await responses.put(self._frame_too_large())
                        break
            finally:
                await responses.put(_STOP)
                await pump
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _frame_too_large() -> dict:
        return error_payload(
            "frame-too-large",
            f"frame exceeds {MAX_FRAME_BYTES} bytes; closing connection",
        )

    async def _response_pump(
        self, responses: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Write responses in request order while the reader keeps
        reading — per-connection pipelining.

        This is also the wire-fault injection point: an armed
        :class:`~repro.faults.serve.ServeFaultPlan` can delay, truncate,
        garble, or abort mid-frame, keyed by the server-wide response
        ordinal (deterministic under a single driving client).
        """
        while True:
            item = await responses.get()
            if item is _STOP:
                return
            payload = await item if isinstance(item, asyncio.Future) else item
            data = encode_frame(payload)
            plan = self._fault_plan
            if plan is not None:
                ordinal = self._responses
                self._responses += 1
                delay = plan.latency_at(ordinal)
                if delay > 0:
                    self.engine.metrics.inc("serve/injected_latency")
                    await asyncio.sleep(delay)
                if plan.drop_at(ordinal):
                    # Half the frame, then RST: the crash-during-reply
                    # window idempotency keys exist for.
                    self.engine.metrics.inc("serve/injected_drops")
                    writer.write(data[: max(1, len(data) // 2)])
                    transport = writer.transport
                    if isinstance(transport, asyncio.WriteTransport):
                        transport.abort()
                    return
                kind = plan.corruption_at(ordinal)
                if kind == "truncate":
                    self.engine.metrics.inc("serve/injected_corruptions")
                    data = data[: max(1, len(data) // 2)]
                elif kind == "garbage":
                    self.engine.metrics.inc("serve/injected_corruptions")
                    data = plan.garbage_line(ordinal) + b"\n"
            writer.write(data)
            await writer.drain()

    async def _handle_line(
        self, line: bytes, responses: asyncio.Queue
    ) -> None:
        stripped = line.strip()
        if not stripped:
            return
        try:
            frame = decode_frame(stripped)
        except ProtocolError as exc:
            self.engine.metrics.inc("serve/protocol_errors")
            await responses.put(error_payload(exc.code, str(exc)))
            return
        if isinstance(frame, ControlRequest):
            await responses.put(self._control(frame))
            return
        if not 0 <= frame.task < len(self.engine.catalog):
            await responses.put(
                error_payload(
                    "bad-value",
                    f"task {frame.task} outside the service catalog "
                    f"(0..{len(self.engine.catalog) - 1})",
                    id=frame.id,
                )
            )
            return
        if self.config.mode == "replay" and frame.arrival is None:
            await responses.put(
                error_payload(
                    "missing-field",
                    "replay sessions must declare 'arrival' on every "
                    "admit frame",
                    id=frame.id,
                )
            )
            return
        # Duplicate of an already-committed decision: answer from the
        # cache even when the queue is full (a retry must never be shed
        # into a different outcome than its original).
        duplicate = self._duplicate(frame)
        if duplicate is not None:
            await responses.put(duplicate)
            return
        pending = self._pending.get(frame.tenant, 0)
        if pending >= self.config.queue_depth:
            await responses.put(self._shed(frame))
            return
        self._pending[frame.tenant] = pending + 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._dispatch.put((frame, future))
        await responses.put(future)

    def _shed(self, frame: AdmitRequest) -> dict:
        """Queue-full shed — journaled like every other engine mutation
        (``record_shed`` bumps the decision counters and depository, so
        replay has to see it too).  Sync, hence atomic w.r.t. the loop."""
        shed = self.engine.record_shed(frame.tenant, frame.id)
        payload = shed.to_payload()
        if self._journal is not None:
            seq = self._next_seq
            self._next_seq += 1
            durable = self._journal.append_shed(
                seq,
                frame.tenant,
                {k: v for k, v in payload.items() if k != "id"},
            )
            if not durable:
                self.engine.metrics.inc("serve/journal_errors")
                payload["durable"] = False
            self._maybe_snapshot()
        return payload

    def _control(self, frame: ControlRequest) -> dict:
        if frame.op == "ping":
            payload: dict = {
                "ok": True,
                "op": "pong",
                "time": self.engine.state.time,
            }
        elif frame.op == "metrics":
            payload = {
                "ok": True,
                "op": "metrics",
                "metrics": self.engine.metrics_snapshot().to_dict(),
            }
        elif frame.op == "stats":
            payload = {"ok": True, "op": "stats", **self.engine.stats()}
            payload["fingerprint"] = self.engine.fingerprint()
            if self._journal is not None:
                payload["journal"] = self._journal.stats().to_dict()
            if self.recovery is not None:
                payload["recovery"] = self.recovery.to_dict()
        else:  # shutdown
            self.request_shutdown()
            payload = {"ok": True, "op": "shutdown"}
        if frame.id is not None:
            payload["id"] = frame.id
        return payload

    async def _serve_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One-shot ``GET /metrics`` (anything else is a 404)."""
        while True:  # drain the header block
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        target = request_line.split()[1].decode("latin-1")
        if target in ("/metrics", "/metrics/"):
            body = prometheus_exposition(self.engine.metrics_snapshot())
            status = "200 OK"
        else:
            body = f"not found: {target}\n"
            status = "404 Not Found"
        payload = body.encode("utf-8")
        writer.write(
            (
                f"HTTP/1.1 {status}\r\n"
                "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + payload
        )
        await writer.drain()
