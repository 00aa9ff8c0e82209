"""Observability: structured tracing, metrics, and trace export.

The simulator and the mapping strategies accept a
:class:`~repro.obs.events.Tracer`; the default
:data:`~repro.obs.events.NULL_TRACER` is disabled and makes every emit
site a single attribute check, so an untraced run pays nothing
measurable (the overhead contract is enforced against the PR3 bench
baseline, see DESIGN.md §11).  With ``SimulationConfig(tracer=
TraceOptions())`` the run collects seed-deterministic
:class:`~repro.obs.events.SimEvent` records and a
:class:`~repro.obs.metrics.MetricsSnapshot`, exportable as canonical
JSONL or a Chrome ``trace_event`` JSON viewable in Perfetto
(:mod:`repro.obs.export`).
"""

from repro.obs.events import (
    EVENT_KINDS,
    NULL_TRACER,
    CollectingTracer,
    NullTracer,
    SimEvent,
    TraceOptions,
    Tracer,
    monotonic_now,
)
from repro.obs.export import (
    event_stream_digest,
    render_metrics,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.metrics import (
    VOLATILE_METRIC_PREFIX,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)

__all__ = [
    # events
    "EVENT_KINDS",
    "SimEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CollectingTracer",
    "TraceOptions",
    "monotonic_now",
    # metrics
    "MetricsRegistry",
    "MetricsSnapshot",
    "HistogramSnapshot",
    "VOLATILE_METRIC_PREFIX",
    # export
    "event_stream_digest",
    "write_events_jsonl",
    "write_chrome_trace",
    "render_metrics",
]
