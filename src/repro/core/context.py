"""The resource manager's view of the world at one activation.

Sec. 4.1 of the paper: when the RM is activated at time ``t``, it
considers the set ``S-bar`` of all admitted-but-unfinished tasks, plus the
newly arrived task, plus (with prediction) the predicted task.  For each
task the RM knows

* the remaining worst-case work ``cp[j,i]`` and energy ``ep[j,i]`` on
  every resource (scaled proportionally when the task migrates),
* the total execution time including migration, ``cpm[j,i]``,
* the remaining time to its deadline ``t_left_j = s_j + d_j - t``.

:class:`PlannedTask` captures one task's state; :func:`cost_rows` derives
its ``cpm`` and energy rows, and :class:`RMContext` bundles the full
activation and is where every strategy reads those quantities, the
predicted task's ready time and the run-first rule.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field

from repro.model import EPS
from repro.model.platform import Platform
from repro.model.task import TaskType

__all__ = ["PlannedTask", "RMContext", "PREDICTED_JOB_ID", "cost_rows"]

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


Rows = tuple[list[float], list[float], list[int]]
"""One task's ``(cpm row, ep + em row, executable resources)``."""


def cost_rows(
    task: PlannedTask, *, charge_unstarted: bool, down: Collection[int]
) -> Rows:
    """``cpm[j,i]`` and ``ep[j,i] + em[j,k,i]`` of ``task`` on every resource.

    The one implementation of the Sec. 4.1 costs:

    * ``cp[j,i] = c[j,i] * remaining_fraction``: the remainder scales
      proportionally when the task moves;
    * leaving the resource a task is executing on non-preemptively
      aborts it, so the work restarts from scratch and there is nothing
      to transfer (no migration overhead);
    * otherwise moving pays ``cm``/``em`` when the task has started, or
      (``charge_unstarted``) has been mapped at all; a never-mapped task
      moves for free;
    * staying on the current resource pays the pending migration debt.

    ``x * fraction`` and ``x + m`` keep ``inf`` at ``inf``, so a
    non-executable resource (wcet and energy are finite on exactly the
    same resources, a TaskType invariant) needs no branch of its own.
    Resources in ``down`` read ``inf`` in both rows.  The executable
    resources are those with a finite cpm, ascending.
    """
    task_type = task.task
    wcets = task_type.wcet
    energies = task_type.energy
    fraction = task.remaining_fraction
    current = task.current_resource
    if task.running_non_preemptable:
        # Leaving the resource aborts the run: restart from scratch.
        row_c = list(wcets)
        row_e = list(energies)
    elif current is not None and (task.started or charge_unstarted):
        cm_row = task_type.migration_time[current]
        em_row = task_type.migration_energy[current]
        row_c = [c * fraction + m for c, m in zip(wcets, cm_row, strict=True)]
        row_e = [
            e * fraction + m for e, m in zip(energies, em_row, strict=True)
        ]
    else:
        row_c = [c * fraction for c in wcets]
        row_e = [e * fraction for e in energies]
    if current is not None:
        row_c[current] = wcets[current] * fraction + task.pending_migration_time
        row_e[current] = energies[current] * fraction
    for i in down:
        row_c[i] = row_e[i] = math.inf
    return row_c, row_e, [i for i, c in enumerate(row_c) if c != math.inf]


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
        §10): no task may be mapped there.  Their ``cpm`` and energy
        read ``inf``, so :meth:`candidate_resources` excludes them.
    """

    time: float
    platform: Platform
    tasks: tuple[PlannedTask, ...]
    charge_unstarted_migration: bool = False
    down_resources: frozenset[int] = frozenset()
    # rows() memo by job id; an entry serves only the task it was built
    # for.
    _rows: dict[int, tuple[PlannedTask, Rows]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

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
        """All predicted tasks, earliest arrival first.

        The paper plans with a single predicted request; this library
        also supports a *lookahead horizon* of several predicted requests
        (the paper's natural extension).  The exact and heuristic
        strategies handle any number; the MILP formulation follows the
        paper and supports at most one.
        """
        return tuple(
            sorted(
                (t for t in self.tasks if t.is_predicted),
                key=lambda t: (t.arrival, t.job_id),
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

    def ready_at(self, task: PlannedTask) -> float:
        """When ``task`` can start: a predicted task at its arrival (or
        now, if that has passed), every other task now."""
        if task.is_predicted and task.arrival is not None:
            return max(self.time, task.arrival)
        return self.time

    def runs_first(self, task: PlannedTask, resource: int) -> bool:
        """Whether ``task`` must run first on ``resource``: it is executing
        there and the resource is non-preemptable, so it runs to
        completion ahead of every deadline."""
        return (
            task.running_non_preemptable
            and task.current_resource == resource
            and not self.platform.is_preemptable(resource)
        )

    def rows(self, task: PlannedTask) -> Rows:
        """:func:`cost_rows` of ``task`` under this context's migration
        policy and down resources, built once per context.  The rows are
        shared: callers must not modify them."""
        entry = self._rows.get(task.job_id)
        if entry is None or entry[0] is not task:
            entry = task, cost_rows(
                task,
                charge_unstarted=self.charge_unstarted_migration,
                down=self.down_resources,
            )
            self._rows[task.job_id] = entry
        return entry[1]

    def cpm(self, task: PlannedTask, resource: int) -> float:
        """``cpm[j,i]``; ``inf`` where not executable or down."""
        return self.rows(task)[0][resource]

    def energy(self, task: PlannedTask, resource: int) -> float:
        """``ep + em``; ``inf`` where not executable or down."""
        return self.rows(task)[1][resource]

    def candidate_resources(self, task: PlannedTask) -> tuple[int, ...]:
        """Resources where the task is executable and fits its deadline.

        This is the paper's constraint (2): ``cpm[j,i] <= t_left_j``,
        with ``t_left`` measured from :meth:`ready_at`, since the
        predicted task cannot start before arriving.  Down resources
        are not executable.
        """
        row_c, _, executable = self.rows(task)
        budget = task.absolute_deadline - self.ready_at(task)
        # Fits its deadline: cpm <= t_left within EPS.
        return tuple(i for i in executable if row_c[i] <= budget + EPS)

    def without_prediction(self) -> "RMContext":
        """A copy of the context with the predicted task removed."""
        return RMContext(
            time=self.time,
            platform=self.platform,
            tasks=self.real_tasks,
            charge_unstarted_migration=self.charge_unstarted_migration,
            down_resources=self.down_resources,
        )
