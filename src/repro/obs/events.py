"""Typed simulation events and the tracer protocol (DESIGN.md §11).

One :class:`SimEvent` records one decision or state transition of a
simulation run: admission outcomes, solver invocations, migrations and
their settlement, GPU abort-restarts, predictor calls, and graceful
degradations passed through from :mod:`repro.faults`.  Events are
**seed-deterministic**: every payload field is a pure function of the
trace, the configuration and the seed — except ``wall_time``, which is
explicitly *volatile* and excluded from the canonical serialisation so
that two runs of the same (seed, spec) produce byte-identical JSONL
(see :func:`repro.obs.export.events_to_jsonl`).

Emit sites talk to a :class:`Tracer`.  The default :data:`NULL_TRACER`
is disabled: the contract for hot paths is one ``tracer.enabled``
attribute check per (potential) event, nothing else — the PR3 bench
suite pins this at < 2% of the baseline.  :class:`CollectingTracer`
buffers events in order with an auto-incremented ``seq``.

``monotonic_now`` is the repository's only sanctioned duration clock for
observability call sites outside the experiment harness (the RPR002
lint rule whitelists ``repro.obs``); it never appears in any
deterministic payload.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

__all__ = [
    "EVENT_KINDS",
    "VOLATILE_FIELDS",
    "SimEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CollectingTracer",
    "TraceOptions",
    "monotonic_now",
    "encode_value",
]


#: The closed event taxonomy: kind -> one-line meaning.  Emit sites may
#: only use these kinds (``SimEvent`` validates), so consumers can
#: exhaustively switch on them.
EVENT_KINDS: dict[str, str] = {
    "sim-start": "one simulation run begins (data: trace/platform shape)",
    "sim-end": "one simulation run finished (data: headline totals)",
    "admission-accept": "an arriving request was admitted",
    "admission-reject": "an arriving request was rejected",
    "solver-call": "one strategy invocation inside admission control",
    "predictor-call": "the predictor was queried for one activation",
    "migration-start": "the RM moved a job; migration debt charged",
    "migration-settle": "a job's migration-time debt was fully paid",
    "abort-restart": "a job running non-preemptably was aborted",
    "job-complete": "an admitted job finished all its work",
    "heuristic-place": "Algorithm 1 placed one task (regret step)",
    "milp-solve": "the MILP solve-validate-cut loop returned",
    "degradation": "graceful-degradation passthrough from repro.faults",
}


def monotonic_now() -> float:
    """The duration clock for observability call sites.

    A thin, centralised wrapper so that layers outside the experiment
    harness (admission control, the simulator) can measure wall time
    without reading a clock themselves — the reading stays owned by the
    observability layer and out of every deterministic payload.
    """
    return time.perf_counter()


def encode_value(value: object) -> object:
    """Make one payload value JSON-safe and deterministic.

    Non-finite floats become their string names (``"inf"``/``"-inf"``/
    ``"nan"``, mirroring the trace serialisation convention); tuples
    become lists (with elements encoded recursively).  Everything else
    passes through unchanged.
    """
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (tuple, list)):
        return [encode_value(v) for v in value]
    return value


@dataclass(frozen=True)
class SimEvent:
    """One structured, seed-deterministic simulation event.

    Attributes
    ----------
    seq:
        Emission index within the run (0-based, strictly increasing).
    time:
        Simulation time of the event.
    kind:
        One of :data:`EVENT_KINDS`.
    job_id, resource, request_index:
        Optional anchors into the trace/platform.
    detail:
        Optional free-text qualifier (deterministic).
    data:
        Sorted ``(key, value)`` pairs of kind-specific payload.
    wall_time:
        **Volatile**: measured seconds (e.g. one solver invocation).
        Excluded from the canonical serialisation so event streams stay
        byte-identical across runs; pass ``include_volatile=True`` to
        :meth:`to_dict` to see it.
    """

    seq: int
    time: float
    kind: str
    job_id: int | None = None
    resource: int | None = None
    request_index: int | None = None
    detail: str | None = None
    data: tuple[tuple[str, object], ...] = ()
    wall_time: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; "
                f"known: {sorted(EVENT_KINDS)}"
            )

    def to_dict(self, *, include_volatile: bool = False) -> dict:
        """A JSON-safe dict; deterministic unless ``include_volatile``."""
        payload: dict = {"seq": self.seq, "time": self.time, "kind": self.kind}
        if self.job_id is not None:
            payload["job_id"] = self.job_id
        if self.resource is not None:
            payload["resource"] = self.resource
        if self.request_index is not None:
            payload["request_index"] = self.request_index
        if self.detail is not None:
            payload["detail"] = self.detail
        if self.data:
            payload["data"] = {
                key: encode_value(value) for key, value in self.data
            }
        if include_volatile and self.wall_time is not None:
            payload["wall_time"] = self.wall_time
        return payload


class Tracer:
    """Event sink protocol; the base class is the disabled no-op.

    Emit sites hold a tracer and guard with ``tracer.enabled`` before
    assembling any payload, so a disabled tracer costs one attribute
    load per site (the zero-cost-when-disabled contract).
    """

    enabled: bool = False

    def emit(
        self,
        kind: str,
        *,
        time: float,
        job_id: int | None = None,
        resource: int | None = None,
        request_index: int | None = None,
        detail: str | None = None,
        data: tuple[tuple[str, object], ...] = (),
        wall_time: float | None = None,
    ) -> None:
        """Record one event; the base implementation drops it."""


class NullTracer(Tracer):
    """The default, disabled tracer (see :data:`NULL_TRACER`)."""


#: Module-level singleton used as the default everywhere a tracer is
#: accepted; never collects anything.
NULL_TRACER = NullTracer()


class CollectingTracer(Tracer):
    """Buffers every emitted event in order, assigning ``seq``."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[SimEvent] = []

    def emit(
        self,
        kind: str,
        *,
        time: float,
        job_id: int | None = None,
        resource: int | None = None,
        request_index: int | None = None,
        detail: str | None = None,
        data: tuple[tuple[str, object], ...] = (),
        wall_time: float | None = None,
    ) -> None:
        self.events.append(
            SimEvent(
                seq=len(self.events),
                time=time,
                kind=kind,
                job_id=job_id,
                resource=resource,
                request_index=request_index,
                detail=detail,
                data=data,
                wall_time=wall_time,
            )
        )

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class TraceOptions:
    """What one simulation run collects (``SimulationConfig(tracer=...)``).

    A small frozen value object (not a tracer instance) so simulation
    configs stay picklable for a pooled ``run_matrix``; the simulator
    builds a fresh :class:`CollectingTracer` /
    :class:`~repro.obs.metrics.MetricsRegistry` per run.
    """

    events: bool = True
    metrics: bool = True

    def __post_init__(self) -> None:
        if not (self.events or self.metrics):
            raise ValueError(
                "TraceOptions with events=False and metrics=False collects "
                "nothing; pass SimulationConfig(tracer=None) instead"
            )


#: Event fields excluded from the canonical (deterministic) form.
VOLATILE_FIELDS: tuple[str, ...] = ("wall_time",)
