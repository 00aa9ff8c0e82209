"""Workload generation and trace handling.

Implements Sec. 5.1 of the paper:

* :func:`~repro.workload.taskgen.generate_task_set` — 100 task types with
  Gaussian WCET/energy on CPUs and a 2-10x faster/more-efficient GPU;
* :func:`~repro.workload.tracegen.generate_trace` /
  :func:`~repro.workload.tracegen.generate_trace_group` — request streams
  with Gaussian inter-arrival times and VT (very tight) or LT (less tight)
  deadlines;
* :class:`~repro.workload.trace.Trace` — a task set plus request stream;
  its JSON form (``save``/``load``) is the one trace interchange format;
* :mod:`~repro.workload.patterns` — synthetic streams with learnable
  structure (repeating type motifs, bursty arrivals) used to exercise the
  online predictors of :mod:`repro.predict`.
"""

from repro.workload.taskgen import TaskSetConfig, generate_task_set
from repro.workload.trace import Trace, TraceFormatError, TraceStats
from repro.workload.tracegen import (
    DeadlineGroup,
    TraceConfig,
    generate_trace,
    generate_trace_group,
)
from repro.workload.patterns import PatternConfig, generate_pattern_trace

__all__ = [
    "TaskSetConfig",
    "generate_task_set",
    "Trace",
    "TraceFormatError",
    "TraceStats",
    "DeadlineGroup",
    "TraceConfig",
    "generate_trace",
    "generate_trace_group",
    "PatternConfig",
    "generate_pattern_trace",
]
