"""Scheduling substrate: per-resource EDF timelines.

The resource managers in :mod:`repro.core` decide *mappings*; given a
mapping, the schedule on each resource is fully determined by the rules of
Sec. 4.1 of the paper:

* tasks already admitted are all ready at the activation time ``t``;
* each resource runs its tasks in EDF order (work-conserving);
* the predicted task arrives in the future and — on preemptable
  resources only — preempts the running task if its deadline is earlier;
* on non-preemptable (GPU-like) resources the currently executing task
  must run first and nothing is ever preempted.

:func:`~repro.sched.timeline.build_timeline` simulates exactly these rules
for one resource and reports per-task finish times; the validation of MILP
solutions replays it directly.  :class:`~repro.sched.timeline.Timeline`
keeps the same schedule incrementally and answers the heuristic's
``IsSchedulable`` probes.
"""

from repro.sched.timeline import (
    Chunk,
    FutureJob,
    ReadyJob,
    ResourceTimeline,
    Timeline,
    build_timeline,
)

__all__ = [
    "ReadyJob",
    "FutureJob",
    "Chunk",
    "ResourceTimeline",
    "Timeline",
    "build_timeline",
]
