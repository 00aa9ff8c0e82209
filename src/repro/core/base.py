"""Strategy interface and mapping validation shared by all RMs.

A *mapping strategy* solves one activation: given an
:class:`~repro.core.context.RMContext` it either produces a mapping of
every task in ``S-bar`` to a resource (and the planned energy), or reports
infeasibility.  :func:`mapping_feasible` and :func:`mapping_energy` define
the ground-truth semantics of a mapping — every strategy (heuristic, MILP,
exact search) is validated against them.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

from repro.core.context import RMContext
from repro.obs.events import NULL_TRACER, Tracer
from repro.sched.timeline import FutureJob, ReadyJob, build_timeline

__all__ = [
    "MappingDecision",
    "MappingStrategy",
    "mapping_feasible",
    "mapping_energy",
    "resource_timeline",
]


@dataclass(frozen=True)
class MappingDecision:
    """Outcome of one strategy invocation.

    Attributes
    ----------
    feasible:
        Whether a mapping meeting every deadline was found.
    mapping:
        ``job_id -> resource index`` for every task in the context
        (including the predicted task, whose entry is planning-only).
        Empty when infeasible.
    energy:
        The objective value: planned remaining energy (incl. migration
        overheads) summed over ``S-bar``.  ``inf`` when infeasible.
    """

    feasible: bool
    mapping: dict[int, int] = field(default_factory=dict)
    energy: float = math.inf

    @classmethod
    def infeasible(cls) -> "MappingDecision":
        """The canonical "no feasible mapping" decision."""
        return cls(feasible=False)


class MappingStrategy(abc.ABC):
    """A mapping/scheduling solver for one RM activation."""

    #: short identifier used in experiment reports
    name: str = "strategy"

    #: event sink for structured tracing (DESIGN.md §11).  The class
    #: default is the disabled :data:`~repro.obs.events.NULL_TRACER`;
    #: the simulator installs a collecting tracer for the duration of a
    #: traced run.  Implementations guard every emit with
    #: ``tracer.enabled`` so untraced runs pay one attribute check.
    tracer: Tracer = NULL_TRACER

    @abc.abstractmethod
    def solve(self, context: RMContext) -> MappingDecision:
        """Map every task in the context, or report infeasibility.

        Implementations must return decisions for which
        :func:`mapping_feasible` holds whenever ``feasible`` is True.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _jobs_on_resource(
    context: RMContext, mapping: dict[int, int], resource: int
) -> tuple[list[ReadyJob], list[FutureJob]]:
    """Split one resource's assigned tasks into ready and future jobs."""
    ready: list[ReadyJob] = []
    future: list[FutureJob] = []
    for task in context.tasks:
        if mapping.get(task.job_id) != resource:
            continue
        exec_time = context.cpm(task, resource)
        if not math.isfinite(exec_time):
            raise ValueError(
                f"job {task.job_id} mapped to resource {resource} where it "
                "is not executable"
            )
        if task.is_predicted:
            future.append(
                FutureJob(
                    job_id=task.job_id,
                    arrival=context.ready_at(task),
                    exec_time=exec_time,
                    deadline=task.absolute_deadline,
                )
            )
        else:
            ready.append(
                ReadyJob(
                    job_id=task.job_id,
                    exec_time=exec_time,
                    deadline=task.absolute_deadline,
                    must_run_first=context.runs_first(task, resource),
                )
            )
    return ready, future


def resource_timeline(
    context: RMContext, mapping: dict[int, int], resource: int
):
    """The EDF timeline of one resource under ``mapping``."""
    ready, future = _jobs_on_resource(context, mapping, resource)
    return build_timeline(
        ready,
        future,
        start_time=context.time,
        preemptable=context.platform.is_preemptable(resource),
    )


def mapping_feasible(context: RMContext, mapping: dict[int, int]) -> bool:
    """Ground truth: does ``mapping`` meet every deadline?

    Requires every task of the context to be mapped to a resource where
    its ``cpm`` is finite (executable and not currently down), and every
    per-resource EDF timeline (with the predicted task's arrival and
    preemption rules) to be feasible.
    """
    for task in context.tasks:
        resource = mapping.get(task.job_id)
        if resource is None or context.cpm(task, resource) == math.inf:
            return False
    for resource in range(context.platform.size):
        if not resource_timeline(context, mapping, resource).feasible:
            return False
    return True


def mapping_energy(context: RMContext, mapping: dict[int, int]) -> float:
    """The paper's objective: remaining energy + migration overheads."""
    total = 0.0
    for task in context.tasks:
        total += context.energy(task, mapping[task.job_id])
    return total
