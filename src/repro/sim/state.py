"""Runtime platform state: job execution, migration, energy accounting.

The simulator keeps one :class:`JobState` per admitted-but-unfinished
task and advances all resources between RM activations.  Between
activations nothing arrives, so each resource simply executes its queue
in EDF order (the currently executing job first on non-preemptable
resources) — exactly the schedule every mapping strategy validated
against.

Accounting rules (DESIGN.md semantics):

* work executes for its WCET and dissipates its average energy pro-rata;
* migration *energy* ``em`` is charged when the RM applies a remap;
  migration *time* ``cm`` becomes a debt the target resource pays before
  the job's work continues (no energy accrues during the debt);
* aborting a job running on a non-preemptable resource resets its work
  to scratch; the energy already dissipated stays on the meter and is
  additionally tracked as ``wasted_energy``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.context import PlannedTask
from repro.model.platform import Platform
from repro.model.request import Request
from repro.model.task import TaskType
from repro.obs.events import NULL_TRACER, Tracer

__all__ = ["JobState", "PlatformState", "SimulationError", "ExecutionSpan"]

_EPS = 1e-9


@dataclass(frozen=True)
class ExecutionSpan:
    """One contiguous interval of platform activity (for Gantt logs).

    ``kind`` is ``"work"`` for task execution or ``"migration"`` for the
    time a resource spends absorbing a migration's ``cm`` overhead.
    """

    job_id: int
    resource: int
    start: float
    end: float
    kind: str = "work"

    @property
    def length(self) -> float:
        return self.end - self.start


class SimulationError(RuntimeError):
    """An internal invariant was violated (e.g. an admitted task missed
    its deadline) — always a bug, never a legitimate simulation outcome."""


@dataclass
class JobState:
    """Mutable runtime state of one admitted job."""

    request: Request
    task: TaskType
    remaining_fraction: float = 1.0
    resource: int | None = None
    started: bool = False
    running_non_preemptable: bool = False
    pending_migration_time: float = 0.0
    completed: bool = False
    completion_time: float | None = None
    energy_consumed: float = 0.0
    energy_this_attempt: float = 0.0
    migrations: int = 0
    aborts: int = 0

    @property
    def job_id(self) -> int:
        return self.request.index

    @property
    def absolute_deadline(self) -> float:
        return self.request.absolute_deadline

    def remaining_time(self) -> float:
        """Work + migration debt left on the current resource."""
        if self.resource is None:
            raise SimulationError(f"job {self.job_id} has no resource")
        return (
            self.remaining_fraction * self.task.wcet[self.resource]
            + self.pending_migration_time
        )

    def planned_view(self) -> PlannedTask:
        """The RM's view of this job (see :class:`PlannedTask`)."""
        return PlannedTask(
            job_id=self.job_id,
            task=self.task,
            absolute_deadline=self.absolute_deadline,
            remaining_fraction=self.remaining_fraction,
            current_resource=self.resource,
            started=self.started,
            running_non_preemptable=self.running_non_preemptable,
            pending_migration_time=self.pending_migration_time,
        )


class PlatformState:
    """All runtime state of the platform during one simulation."""

    def __init__(
        self,
        platform: Platform,
        *,
        charge_unstarted_migration: bool = False,
        log_execution: bool = False,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.platform = platform
        self.charge_unstarted_migration = charge_unstarted_migration
        self.tracer = tracer
        # `time` is the logical execution cursor — a plain float, never a
        # live clock reading, so replays are deterministic.  It is the
        # only time the engine reads; only `advance` moves it.
        self.time = 0.0
        self.jobs: dict[int, JobState] = {}  # unfinished admitted jobs
        self.finished: list[JobState] = []
        self.total_energy = 0.0
        self.migration_energy = 0.0
        self.wasted_energy = 0.0
        self.migration_count = 0
        self.abort_count = 0
        self.execution_log: list[ExecutionSpan] | None = (
            [] if log_execution else None
        )
        # Resources currently unavailable (fault injection, DESIGN.md
        # §10).  Down resources execute nothing; fail_resource() empties
        # their bucket, apply_mapping() refuses to place jobs there.
        self.down: set[int] = set()
        # Per-resource job buckets: queue_of/advance touch only the jobs
        # actually mapped to a resource instead of scanning every job.
        # Membership mirrors JobState.resource exactly (updated on every
        # (re)mapping and completion); unmapped jobs live in no bucket.
        self._buckets: list[dict[int, JobState]] = [
            {} for _ in range(platform.size)
        ]

    def _rebucket(self, job: JobState, old: int | None, new: int) -> None:
        """Move one job between per-resource buckets."""
        if old is not None:
            del self._buckets[old][job.job_id]
        self._buckets[new][job.job_id] = job

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def active_views(self) -> list[PlannedTask]:
        """Planned views of all unfinished jobs (the RM's ``S-bar`` base)."""
        return [job.planned_view() for job in self.jobs.values()]

    def queue_of(self, resource: int) -> list[JobState]:
        """Execution order of one resource: running-first (if it must),
        then EDF."""
        running_first: list[JobState] = []
        rest: list[JobState] = []
        must_run_first = not self.platform.is_preemptable(resource)
        for job in self._buckets[resource].values():
            if job.completed:
                continue
            if must_run_first and job.running_non_preemptable:
                running_first.append(job)
            else:
                rest.append(job)
        if len(running_first) > 1:
            raise SimulationError(
                f"resource {resource} has {len(running_first)} running "
                "non-preemptable jobs"
            )
        rest.sort(key=lambda j: (j.absolute_deadline, j.job_id))
        return running_first + rest

    def completion_horizon(self) -> float:
        """Earliest time by which every current job will have finished."""
        horizon = self.time
        for resource in range(self.platform.size):
            backlog = sum(job.remaining_time() for job in self.queue_of(resource))
            horizon = max(horizon, self.time + backlog)
        return horizon

    # ------------------------------------------------------------------
    # Admission / mapping
    # ------------------------------------------------------------------

    def admit(self, request: Request, task: TaskType) -> JobState:
        """Register a newly admitted job (unmapped until the RM places it)."""
        if request.index in self.jobs:
            raise SimulationError(f"job {request.index} admitted twice")
        job = JobState(request=request, task=task)
        self.jobs[request.index] = job
        return job

    def apply_mapping(self, mapping: dict[int, int]) -> None:
        """Apply an RM decision: (re)place every unfinished job.

        Charges migration energy, sets migration-time debts, and performs
        abort-restarts for jobs moved off non-preemptable resources.
        """
        for job_id, resource in mapping.items():
            job = self.jobs.get(job_id)
            if job is None:
                raise SimulationError(f"mapping refers to unknown job {job_id}")
            if not job.task.executable_on(resource):
                raise SimulationError(
                    f"job {job_id} mapped to resource {resource} where it "
                    "cannot execute"
                )
            if resource in self.down:
                raise SimulationError(
                    f"job {job_id} mapped to down resource {resource}"
                )
            old = job.resource
            if old == resource:
                continue
            if old is None:
                job.resource = resource
                self._rebucket(job, None, resource)
                continue
            if job.running_non_preemptable:
                # Abort & restart from scratch: no state to migrate.
                wasted = job.energy_this_attempt
                self.wasted_energy += wasted
                job.remaining_fraction = 1.0
                job.energy_this_attempt = 0.0
                job.pending_migration_time = 0.0
                job.running_non_preemptable = False
                job.aborts += 1
                self.abort_count += 1
                job.resource = resource
                self._rebucket(job, old, resource)
                if self.tracer.enabled:
                    self.tracer.emit(
                        "abort-restart",
                        time=self.time,
                        job_id=job_id,
                        resource=resource,
                        data=(("from", old), ("wasted_energy", wasted)),
                    )
                continue
            if job.started or self.charge_unstarted_migration:
                overhead = job.task.em(old, resource)
                job.pending_migration_time = job.task.cm(old, resource)
                job.energy_consumed += overhead
                self.total_energy += overhead
                self.migration_energy += overhead
                job.migrations += 1
                self.migration_count += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        "migration-start",
                        time=self.time,
                        job_id=job_id,
                        resource=resource,
                        data=(
                            ("cm", job.pending_migration_time),
                            ("em", overhead),
                            ("from", old),
                        ),
                    )
            else:
                job.pending_migration_time = 0.0
            job.running_non_preemptable = False
            job.resource = resource
            self._rebucket(job, old, resource)
        for job in self.jobs.values():
            if job.resource is None:
                raise SimulationError(
                    f"job {job.job_id} left unmapped by the RM decision"
                )

    # ------------------------------------------------------------------
    # Fault injection (DESIGN.md §10)
    # ------------------------------------------------------------------

    def fail_resource(self, resource: int) -> list[JobState]:
        """Take ``resource`` down at the current time.

        Jobs mapped there lose their execution state (the work of the
        current attempt is wasted, exactly as in a non-preemptable
        abort), are unregistered from the platform, and are returned in
        EDF order so the simulator can attempt re-admission one by one.
        Progress must have been advanced to the outage time first.
        """
        if not 0 <= resource < self.platform.size:
            raise SimulationError(f"resource {resource} out of range")
        if resource in self.down:
            raise SimulationError(f"resource {resource} is already down")
        self.down.add(resource)
        displaced = sorted(
            self._buckets[resource].values(),
            key=lambda j: (j.absolute_deadline, j.job_id),
        )
        for job in displaced:
            self.wasted_energy += job.energy_this_attempt
            job.remaining_fraction = 1.0
            job.energy_this_attempt = 0.0
            job.pending_migration_time = 0.0
            job.running_non_preemptable = False
            job.resource = None
            del self.jobs[job.job_id]
        self._buckets[resource].clear()
        return displaced

    def restore_resource(self, resource: int) -> None:
        """Bring a failed resource back (empty; jobs return only via the
        RM remapping them there at a later activation)."""
        if resource not in self.down:
            raise SimulationError(f"resource {resource} is not down")
        self.down.discard(resource)

    def readmit(self, job: JobState) -> None:
        """Re-register a displaced job ahead of applying its new mapping."""
        if job.job_id in self.jobs:
            raise SimulationError(f"job {job.job_id} readmitted twice")
        if job.resource is not None:
            raise SimulationError(
                f"displaced job {job.job_id} still holds resource "
                f"{job.resource}"
            )
        self.jobs[job.job_id] = job

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def advance(self, until: float) -> list[JobState]:
        """Execute every resource's queue from ``self.time`` to ``until``.

        Returns the jobs that completed, in completion order.  Raises
        :class:`SimulationError` if an admitted job misses its deadline —
        admission control guarantees this never happens, so a miss is an
        internal inconsistency.
        """
        if until < self.time - _EPS:
            raise SimulationError(
                f"cannot advance backwards: {self.time} -> {until}"
            )
        completed: list[JobState] = []
        for resource in range(self.platform.size):
            completed.extend(self._advance_resource(resource, until))
        completed.sort(key=lambda j: (j.completion_time, j.job_id))
        for job in completed:
            del self.jobs[job.job_id]
            assert job.resource is not None
            del self._buckets[job.resource][job.job_id]
            self.finished.append(job)
        self.time = max(self.time, until)
        return completed

    def _log(
        self, job_id: int, resource: int, start: float, end: float, kind: str
    ) -> None:
        """Append an execution span, merging with a contiguous same-kind
        predecessor of the same job on the same resource."""
        if self.execution_log is None or end <= start + _EPS:
            return
        if self.execution_log:
            last = self.execution_log[-1]
            if (
                last.job_id == job_id
                and last.resource == resource
                and last.kind == kind
                and abs(last.end - start) <= _EPS
            ):
                self.execution_log[-1] = ExecutionSpan(
                    job_id, resource, last.start, end, kind
                )
                return
        self.execution_log.append(
            ExecutionSpan(job_id, resource, start, end, kind)
        )

    def _advance_resource(self, resource: int, until: float) -> list[JobState]:
        completed: list[JobState] = []
        now = self.time
        queue = self.queue_of(resource)
        for job in queue:
            if now >= until - _EPS:
                break
            available = until - now
            # Pay any migration debt first (no energy, no work progress).
            if job.pending_migration_time > 0:
                debt = min(job.pending_migration_time, available)
                job.pending_migration_time -= debt
                self._log(job.job_id, resource, now, now + debt, "migration")
                now += debt
                available -= debt
                if job.pending_migration_time <= 0 and self.tracer.enabled:
                    self.tracer.emit(
                        "migration-settle",
                        time=now,
                        job_id=job.job_id,
                        resource=resource,
                    )
                if available <= _EPS:
                    break
            wcet = job.task.wcet[resource]
            energy = job.task.energy[resource]
            work_needed = job.remaining_fraction * wcet
            run = min(work_needed, available)
            if run > 0:
                job.started = True
                if not self.platform.is_preemptable(resource):
                    job.running_non_preemptable = True
                delta_energy = energy * run / wcet
                job.energy_consumed += delta_energy
                job.energy_this_attempt += delta_energy
                self.total_energy += delta_energy
                job.remaining_fraction -= run / wcet
                self._log(job.job_id, resource, now, now + run, "work")
                now += run
            if job.remaining_fraction <= _EPS / max(wcet, 1.0):
                job.remaining_fraction = 0.0
                job.completed = True
                job.running_non_preemptable = False
                job.completion_time = now
                if now > job.absolute_deadline + 1e-6:
                    raise SimulationError(
                        f"admitted job {job.job_id} missed its deadline: "
                        f"finished {now}, deadline {job.absolute_deadline}"
                    )
                completed.append(job)
                if self.tracer.enabled:
                    self.tracer.emit(
                        "job-complete",
                        time=now,
                        job_id=job.job_id,
                        resource=resource,
                        data=(("energy", job.energy_consumed),),
                    )
            else:
                break  # ran out of time mid-job; nothing behind it runs
        return completed
