"""Requests: elements of the arriving workload stream.

Each request ``req_j`` carries an arrival time ``s_j``, the type of the
task it triggers, and a relative deadline ``d_j`` (Sec. 2).  Predictors
hand the resource manager a :class:`PredictedRequest` describing the
*next* expected request; the RM uses it purely as a planning constraint
(Sec. 4.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Request", "PredictedRequest"]


@dataclass(frozen=True)
class Request:
    """One arriving request of a trace.

    Attributes
    ----------
    index:
        Position of the request in its trace (0-based); doubles as the job
        identifier once admitted.
    arrival:
        Absolute arrival time ``s_j``.
    type_id:
        Index of the triggered :class:`~repro.model.task.TaskType` within
        the trace's task set.
    deadline:
        Relative deadline ``d_j``; the absolute deadline is
        ``arrival + deadline``.
    """

    index: int
    arrival: float
    type_id: int
    deadline: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"request index must be >= 0, got {self.index}")
        if not math.isfinite(self.arrival):
            raise ValueError(f"arrival must be finite, got {self.arrival}")
        if not math.isfinite(self.deadline):
            raise ValueError(f"deadline must be finite, got {self.deadline}")
        if self.arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if self.deadline <= 0:
            raise ValueError(f"relative deadline must be > 0, got {self.deadline}")
        if self.type_id < 0:
            raise ValueError(f"type_id must be >= 0, got {self.type_id}")

    @property
    def absolute_deadline(self) -> float:
        """``s_j + d_j``."""
        return self.arrival + self.deadline


@dataclass(frozen=True)
class PredictedRequest:
    """A predictor's view of the next request.

    The fields mirror :class:`Request` but carry *predicted* values, which
    may be wrong in the type, the arrival time, or both.  ``deadline`` is
    the relative deadline the RM plans with for the predicted task.
    """

    arrival: float
    type_id: int
    deadline: float

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError(f"relative deadline must be > 0, got {self.deadline}")
        if self.type_id < 0:
            raise ValueError(f"type_id must be >= 0, got {self.type_id}")

    @property
    def absolute_deadline(self) -> float:
        return self.arrival + self.deadline
