"""Online task-type prediction and the composed learned predictor.

:class:`MarkovTypePredictor` learns a first-order Markov chain over task
types (the request-type prediction of the authors' prior work [13]
operates at the same granularity: "which request type comes next").
:class:`ComposedPredictor` assembles a full
:class:`~repro.model.request.PredictedRequest` from

* a type model (Markov chain),
* an inter-arrival model (:mod:`repro.predict.interarrival`),
* a per-type running mean of observed relative deadlines (the trace's
  deadline field is tied to the task type through RWCET, so the type's
  history is the natural estimator).
"""

from __future__ import annotations

import collections
from typing import Sequence

from repro.model.request import PredictedRequest, Request
from repro.predict.base import OnlinePredictor
from repro.predict.interarrival import (
    ArInterarrival,
    InterarrivalModel,
    SeasonalInterarrival,
    TwoPhaseInterarrival,
)

__all__ = [
    "MarkovTypePredictor",
    "ComposedPredictor",
    "make_ar_predictor",
    "make_seasonal_predictor",
]


class MarkovTypePredictor:
    """First-order Markov chain over task-type ids.

    ``update`` feeds observed types in order; ``forecast`` returns the
    most frequent successor of the latest type, falling back to the
    globally most frequent type when the current type has never been
    seen before (or at the start of the stream).
    """

    def __init__(self) -> None:
        self._transitions: dict[int, collections.Counter] = {}
        self._frequency: collections.Counter = collections.Counter()
        self._last_type: int | None = None
        # Cached ``min((-count, type))`` per context and globally, kept
        # exact incrementally: counts only ever grow, so a stored best
        # stays valid until the incremented entry beats (or is) it.
        self._best: dict[int, tuple[int, int]] = {}
        self._best_frequency: tuple[int, int] | None = None

    def reset(self) -> None:
        self._transitions.clear()
        self._frequency.clear()
        self._last_type = None
        self._best.clear()
        self._best_frequency = None

    def update(self, type_id: int) -> None:
        last = self._last_type
        if last is not None:
            successors = self._transitions.setdefault(
                last, collections.Counter()
            )
            successors[type_id] += 1
            candidate = (-successors[type_id], type_id)
            best = self._best.get(last)
            if best is None or candidate < best or best[1] == type_id:
                self._best[last] = candidate
        self._frequency[type_id] += 1
        candidate = (-self._frequency[type_id], type_id)
        best = self._best_frequency
        if best is None or candidate < best or best[1] == type_id:
            self._best_frequency = candidate
        self._last_type = type_id

    def forecast(self) -> int | None:
        if self._last_type is not None:
            best = self._best.get(self._last_type)
            if best is not None:
                return best[1]
        if self._best_frequency is not None:
            return self._best_frequency[1]
        return None


class ComposedPredictor(OnlinePredictor):
    """A full next-request predictor from online type + gap models.

    Task types come from a :class:`MarkovTypePredictor` (first-order
    chain).

    Parameters
    ----------
    interarrival:
        The gap model (two-phase by default).
    warmup:
        Minimum number of observed requests before forecasting; below
        it the predictor abstains (returns ``None``), which the RM
        treats as "no prediction" — better than guessing from nothing.
    """

    name = "learned"

    def __init__(
        self,
        interarrival: InterarrivalModel | None = None,
        *,
        warmup: int = 5,
    ) -> None:
        super().__init__()
        if warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {warmup}")
        self.warmup = warmup
        self._type_model = MarkovTypePredictor()
        self._gap_model = interarrival or TwoPhaseInterarrival()
        self._deadline_sum: collections.Counter = collections.Counter()
        self._deadline_count: collections.Counter = collections.Counter()
        self._global_deadline_sum = 0.0
        self._observed = 0
        self._last_arrival: float | None = None

    def _reset_state(self) -> None:
        self._type_model.reset()
        self._gap_model.reset()
        self._deadline_sum.clear()
        self._deadline_count.clear()
        self._global_deadline_sum = 0.0
        self._observed = 0
        self._last_arrival = None

    def observe(self, request: Request) -> None:
        self._type_model.update(request.type_id)
        if self._last_arrival is not None:
            self._gap_model.update(request.arrival - self._last_arrival)
        self._last_arrival = request.arrival
        self._deadline_sum[request.type_id] += request.deadline
        self._deadline_count[request.type_id] += 1
        self._global_deadline_sum += request.deadline
        self._observed += 1

    def _deadline_estimate(self, type_id: int) -> float:
        if self._deadline_count[type_id]:
            return self._deadline_sum[type_id] / self._deadline_count[type_id]
        return self._global_deadline_sum / self._observed

    def forecast(self, history: Sequence[Request]) -> PredictedRequest | None:
        if self._observed < self.warmup:
            return None
        type_id = self._type_model.forecast()
        gap = self._gap_model.forecast()
        if type_id is None or gap is None or self._last_arrival is None:
            return None
        deadline = self._deadline_estimate(type_id)
        if deadline <= 0:
            return None
        return PredictedRequest(
            arrival=self._last_arrival + max(gap, 0.0),
            type_id=type_id,
            deadline=deadline,
        )


def make_ar_predictor(
    order: int = 3, window: int = 64, *, warmup: int = 5
) -> ComposedPredictor:
    """The ``"ar"`` registry predictor: Markov types + AR(p) gap model.

    Same composition as the learned predictor, with the two-phase gap
    model replaced by a sliding-window autoregressive fit
    (:class:`~repro.predict.interarrival.ArInterarrival`) — better on
    streams whose cadence trends rather than repeats.
    """
    predictor = ComposedPredictor(
        ArInterarrival(order=order, window=window), warmup=warmup
    )
    predictor.name = "ar"
    return predictor


def make_seasonal_predictor(
    period: int = 8,
    alpha: float = 0.4,
    gamma: float = 0.3,
    *,
    warmup: int = 5,
) -> ComposedPredictor:
    """The ``"seasonal"`` registry predictor: Markov types + Holt-Winters gaps.

    The gap model
    (:class:`~repro.predict.interarrival.SeasonalInterarrival`) smooths
    a level plus a per-phase correction, tracking periodic arrival
    cadence the EWMA family averages away.
    """
    predictor = ComposedPredictor(
        SeasonalInterarrival(period=period, alpha=alpha, gamma=gamma),
        warmup=warmup,
    )
    predictor.name = "seasonal"
    return predictor
