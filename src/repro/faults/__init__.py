"""Deterministic fault injection and graceful degradation (DESIGN.md §10).

The subsystem has four parts:

* :mod:`repro.faults.plan` — the seeded :class:`FaultPlan` DSL
  describing resource outages, predictor faults, solver faults, and
  request-stream perturbations;
* :mod:`repro.faults.events` — structured :class:`DegradationEvent`
  records of every graceful-degradation decision;
* :mod:`repro.faults.watchdog` — the :class:`SolverWatchdog` guarding
  primary solves with a heuristic fallback;
* :mod:`repro.faults.serve` — the seeded :class:`ServeFaultPlan` DSL of
  wire/journal faults (response latency, NDJSON corruption, mid-frame
  connection drops, journal-write failures) the chaos harness drives
  against the live service;
* :mod:`repro.faults.smoke` — the verified smoke grid behind
  ``repro faults --smoke``: a ``no-faults`` scenario, then the canonical
  fault scenarios (imported lazily: it pulls in the simulator and
  experiment layers).
"""

from repro.faults.events import DEGRADATION_KINDS, DegradationEvent
from repro.faults.plan import (
    FaultPlan,
    PredictorFault,
    ResourceOutage,
    SolverFault,
    TraceFault,
)
from repro.faults.serve import (
    ConnectionDrop,
    JournalFault,
    ResponseCorruption,
    ResponseLatency,
    ServeFaultPlan,
)
from repro.faults.watchdog import SolverWatchdog

__all__ = [
    "DEGRADATION_KINDS",
    "ConnectionDrop",
    "DegradationEvent",
    "FaultPlan",
    "JournalFault",
    "PredictorFault",
    "ResourceOutage",
    "ResponseCorruption",
    "ResponseLatency",
    "ServeFaultPlan",
    "SolverFault",
    "SolverWatchdog",
    "TraceFault",
]
