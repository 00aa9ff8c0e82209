"""System model: heterogeneous platform, task types, requests.

This package implements the system model of Sec. 2 of the paper:

* :class:`~repro.model.platform.Resource` / :class:`~repro.model.platform.Platform`
  — ``N`` heterogeneous computation resources, each either preemptable
  (CPU-like) or non-preemptable (GPU-like);
* :class:`~repro.model.task.TaskType` — a task characterised by per-resource
  WCET ``c[j,i]``, per-resource average energy ``e[j,i]`` and migration
  overhead matrices ``cm[j,k,i]`` / ``em[j,k,i]``;
* :class:`~repro.model.request.Request` — one element of the arriving
  request stream (arrival time, task type, relative deadline), plus the
  :class:`~repro.model.request.PredictedRequest` a predictor hands to the
  resource manager.

It also owns :data:`EPS`, the one absolute tolerance every time,
deadline and capacity comparison of the engine uses.
"""

from repro.model.platform import Platform, Resource
from repro.model.request import PredictedRequest, Request
from repro.model.task import NOT_EXECUTABLE, TaskType

__all__ = [
    "EPS",
    "Resource",
    "Platform",
    "TaskType",
    "NOT_EXECUTABLE",
    "Request",
    "PredictedRequest",
]

EPS: float = 1e-9
"""Absolute tolerance for time, deadline and capacity comparisons.

The EDF timeline, the simulator, Algorithm 1, constraint (2)'s candidate
filter and the MILP's feasibility tolerance all read this one value, so
a quantity on the boundary is judged the same way by every layer."""
