"""The resource manager's view of the world at one activation.

Sec. 4.1 of the paper: when the RM is activated at time ``t``, it
considers the set ``S-bar`` of all admitted-but-unfinished tasks, plus the
newly arrived task, plus (with prediction) the predicted task.  For each
task the RM knows

* the remaining worst-case work ``cp[j,i]`` and energy ``ep[j,i]`` on
  every resource (scaled proportionally when the task migrates),
* the total execution time including migration, ``cpm[j,i]``,
* the remaining time to its deadline ``t_left_j = s_j + d_j - t``.

:class:`PlannedTask` captures one task's state and derives those
quantities; :class:`RMContext` bundles the full activation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.model import EPS
from repro.model.platform import Platform
from repro.model.task import TaskType

__all__ = ["PlannedTask", "RMContext", "PREDICTED_JOB_ID"]

PREDICTED_JOB_ID: int = 10**9
"""Reserved job id for the predicted task.

It is larger than any real request index, so EDF deadline ties between a
real task and the predicted task resolve in favour of the real task —
matching the paper's convention that tasks with deadline *equal* to the
predicted task's belong to SL1 (run before it)."""


@dataclass(frozen=True)
class PlannedTask:
    """One task of ``S-bar`` as the RM sees it at activation time.

    Attributes
    ----------
    job_id:
        Unique id within the activation (the trace request index; the
        predicted task uses a reserved id).
    task:
        The task type (WCET/energy/migration data).
    absolute_deadline:
        ``s_j + d_j``.
    remaining_fraction:
        Fraction of the task's work still to execute, in ``(0, 1]``;
        resource-independent (``cp[j,i] = c[j,i] * remaining_fraction``).
    current_resource:
        Resource the task is currently mapped to, or None for a task not
        yet mapped (the new arrival, the predicted task).
    started:
        Whether the task has executed at all (it may be mapped but still
        queued).
    running_non_preemptable:
        True when the task is *currently executing* on a non-preemptable
        resource: it can only continue there or be aborted and restarted
        from scratch elsewhere.
    pending_migration_time:
        Unpaid migration delay on the current resource (set when a
        previous activation migrated the task and the overhead has not
        fully elapsed).
    is_predicted:
        Marks the predicted task (planning constraint only).
    arrival:
        For the predicted task: its (predicted) future arrival time.
        ``None`` for tasks that are ready now.
    """

    job_id: int
    task: TaskType
    absolute_deadline: float
    remaining_fraction: float = 1.0
    current_resource: int | None = None
    started: bool = False
    running_non_preemptable: bool = False
    pending_migration_time: float = 0.0
    is_predicted: bool = False
    arrival: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.remaining_fraction <= 1.0:
            raise ValueError(
                f"job {self.job_id}: remaining_fraction must be in (0, 1], "
                f"got {self.remaining_fraction}"
            )
        if self.running_non_preemptable and self.current_resource is None:
            raise ValueError(
                f"job {self.job_id}: running_non_preemptable requires a "
                "current resource"
            )
        if self.pending_migration_time < 0:
            raise ValueError(
                f"job {self.job_id}: pending_migration_time must be >= 0"
            )
        if self.is_predicted and self.arrival is None:
            raise ValueError(
                f"job {self.job_id}: a predicted task needs an arrival time"
            )

    # ------------------------------------------------------------------
    # Remaining work / energy (Sec. 4.1 formulas)
    # ------------------------------------------------------------------

    def remaining_time_on(self, resource: int) -> float:
        """``cp[j,i]``: remaining WCET if the task runs on ``resource``.

        Continuing on the current resource keeps the proportional
        remainder; moving a task that is executing on a non-preemptable
        resource aborts it, so the work restarts from scratch.
        """
        wcet = self.task.wcet[resource]
        if not math.isfinite(wcet):
            return math.inf
        if self.running_non_preemptable and resource != self.current_resource:
            return wcet  # abort & restart from the beginning
        return wcet * self.remaining_fraction

    def remaining_energy_on(self, resource: int) -> float:
        """``ep[j,i]``: remaining average energy on ``resource``."""
        energy = self.task.energy[resource]
        if not math.isfinite(energy):
            return math.inf
        if self.running_non_preemptable and resource != self.current_resource:
            return energy
        return energy * self.remaining_fraction

    def migration_applies(
        self, resource: int, *, charge_unstarted: bool = False
    ) -> bool:
        """Whether mapping to ``resource`` incurs migration overhead.

        No overhead applies when the task stays put, has never been mapped,
        restarts after a non-preemptable abort (nothing to transfer), or —
        under the default policy — has been mapped but never started.
        """
        if self.current_resource is None or resource == self.current_resource:
            return False
        if self.running_non_preemptable:
            return False
        return self.started or charge_unstarted

    def exec_time_on(
        self, resource: int, *, charge_unstarted: bool = False
    ) -> float:
        """``cpm[j,i]``: remaining WCET plus migration delay on ``resource``."""
        base = self.remaining_time_on(resource)
        if not math.isfinite(base):
            return math.inf
        if self.migration_applies(resource, charge_unstarted=charge_unstarted):
            return base + self.task.cm(self.current_resource, resource)
        if resource == self.current_resource:
            return base + self.pending_migration_time
        return base

    def energy_on(self, resource: int, *, charge_unstarted: bool = False) -> float:
        """``ep[j,i] + em[j,k,i]``: the task's objective contribution."""
        base = self.remaining_energy_on(resource)
        if not math.isfinite(base):
            return math.inf
        if self.migration_applies(resource, charge_unstarted=charge_unstarted):
            return base + self.task.em(self.current_resource, resource)
        return base

    def with_fraction(self, fraction: float) -> "PlannedTask":
        """Copy with a different remaining fraction (simulator helper)."""
        return replace(self, remaining_fraction=fraction)


@dataclass(frozen=True)
class RMContext:
    """One activation of the resource manager.

    Attributes
    ----------
    time:
        The activation time ``t`` (decision time; includes any prediction
        overhead already elapsed).
    platform:
        The platform being managed.
    tasks:
        The set ``S-bar``: admitted unfinished tasks + the new arrival +
        optionally predicted task(s).  The paper plans with one predicted
        request; multiple (a lookahead horizon) are supported by the
        heuristic and exact strategies.
    charge_unstarted_migration:
        Policy knob (DESIGN.md semantics item 3): whether remapping a
        never-started task pays migration overhead.
    down_resources:
        Resources currently unavailable (fault injection, DESIGN.md
        §10): no task may be mapped there, and
        :meth:`candidate_resources` excludes them.
    """

    time: float
    platform: Platform
    tasks: tuple[PlannedTask, ...]
    charge_unstarted_migration: bool = False
    down_resources: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        ids = [t.job_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate job ids in context: {ids}")
        n = self.platform.size
        for resource in self.down_resources:
            if not 0 <= resource < n:
                raise ValueError(
                    f"down resource {resource} out of range for platform "
                    f"of size {n}"
                )
        for t in self.tasks:
            if t.task.n_resources != n:
                raise ValueError(
                    f"job {t.job_id}: task defined for {t.task.n_resources} "
                    f"resources, platform has {n}"
                )
            if t.current_resource is not None and not 0 <= t.current_resource < n:
                raise ValueError(
                    f"job {t.job_id}: current_resource {t.current_resource} "
                    "out of range"
                )

    @property
    def predicted_tasks(self) -> tuple[PlannedTask, ...]:
        """All predicted tasks, in arrival order.

        The paper plans with a single predicted request; this library
        also supports a *lookahead horizon* of several predicted requests
        (the paper's natural extension).  The exact and heuristic
        strategies handle any number; the MILP formulation follows the
        paper and supports at most one.
        """
        return tuple(
            sorted(
                (t for t in self.tasks if t.is_predicted),
                key=lambda t: (t.arrival or 0.0, t.job_id),
            )
        )

    @property
    def predicted(self) -> PlannedTask | None:
        """The earliest predicted task, if any (the paper's single
        predicted request)."""
        predicted = self.predicted_tasks
        return predicted[0] if predicted else None

    @property
    def real_tasks(self) -> tuple[PlannedTask, ...]:
        """``S-bar`` without the predicted task."""
        return tuple(t for t in self.tasks if not t.is_predicted)

    def t_left(self, task: PlannedTask) -> float:
        """``t_left_j = s_j + d_j - t`` (time to the absolute deadline)."""
        return task.absolute_deadline - self.time

    @property
    def window(self) -> float:
        """``K-bar``: the RM's planning window (latest ``t_left``)."""
        if not self.tasks:
            return 0.0
        return max(self.t_left(t) for t in self.tasks)

    def cpm(self, task: PlannedTask, resource: int) -> float:
        """``cpm[j,i]`` under this context's migration policy."""
        return task.exec_time_on(
            resource, charge_unstarted=self.charge_unstarted_migration
        )

    def energy(self, task: PlannedTask, resource: int) -> float:
        """``ep + em`` under this context's migration policy."""
        return task.energy_on(
            resource, charge_unstarted=self.charge_unstarted_migration
        )

    def candidate_resources(self, task: PlannedTask) -> tuple[int, ...]:
        """Resources where the task is executable and fits its deadline.

        This is the paper's constraint (2): ``cpm[j,i] <= t_left_j``.
        For the predicted task the deadline is measured from its arrival,
        since it cannot start before arriving.  Down resources are never
        candidates.
        """
        start = self.time
        if task.is_predicted and task.arrival is not None:
            start = max(self.time, task.arrival)
        budget = task.absolute_deadline - start
        down = self.down_resources
        return tuple(
            i
            for i in range(self.platform.size)
            if i not in down and self.cpm(task, i) <= budget + EPS
        )

    def without_prediction(self) -> "RMContext":
        """A copy of the context with the predicted task removed."""
        return RMContext(
            time=self.time,
            platform=self.platform,
            tasks=self.real_tasks,
            charge_unstarted_migration=self.charge_unstarted_migration,
            down_resources=self.down_resources,
        )
