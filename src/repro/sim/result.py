"""Simulation results and per-activation records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.invariants import VerificationReport
    from repro.faults.events import DegradationEvent
    from repro.obs.events import SimEvent
    from repro.obs.metrics import MetricsSnapshot

__all__ = ["ActivationRecord", "SimulationResult"]


@dataclass(frozen=True)
class ActivationRecord:
    """What happened at one RM activation (one request arrival)."""

    request_index: int
    arrival: float
    decision_time: float
    admitted: bool
    used_prediction: bool
    had_prediction: bool
    solver_calls: int
    context_size: int
    planned_energy: float


@dataclass
class SimulationResult:
    """Outcome of replaying one trace through one resource manager.

    Attributes
    ----------
    n_requests:
        Total requests in the trace.
    accepted, rejected:
        Request indices by admission outcome.
    total_energy:
        Energy dissipated: executed work + migration overheads, including
        work later wasted by aborts.
    energy_demand:
        The trace's configuration-independent normaliser (sum of each
        request's mean task energy across resources).
    wasted_energy, migration_energy:
        Components of ``total_energy`` lost to aborts / migrations.
    migration_count, abort_count:
        Number of applied migrations and GPU abort-restarts.
    prediction_overhead_total:
        Total decision-delay time charged for running the predictor.
    records:
        Per-activation details (empty unless the simulator was asked to
        collect them).
    execution_log:
        Execution spans for Gantt rendering (empty unless
        ``collect_execution_log`` was set).
    verification:
        The schedule-invariant verifier's report when the simulation ran
        with ``verify=True`` (see :mod:`repro.analysis.invariants`);
        ``None`` otherwise.
    degradations:
        Structured :class:`~repro.faults.events.DegradationEvent`
        records of every graceful-degradation decision (empty on a clean
        run; see DESIGN.md §10).
    evicted:
        Indices of admitted requests later lost to a resource outage
        (displaced and not re-admittable).  A subset of ``accepted``.
    events:
        Structured :class:`~repro.obs.events.SimEvent` stream of the run
        (empty unless ``SimulationConfig(tracer=TraceOptions())`` enabled
        event collection; see DESIGN.md §11).
    metrics:
        The run's :class:`~repro.obs.metrics.MetricsSnapshot`, ``None``
        unless metrics collection was enabled.
    """

    n_requests: int
    accepted: list[int] = field(default_factory=list)
    rejected: list[int] = field(default_factory=list)
    total_energy: float = 0.0
    energy_demand: float = 0.0
    wasted_energy: float = 0.0
    migration_energy: float = 0.0
    migration_count: int = 0
    abort_count: int = 0
    prediction_overhead_total: float = 0.0
    predictions_used: int = 0
    solver_calls_total: int = 0
    records: list[ActivationRecord] = field(default_factory=list)
    execution_log: list = field(default_factory=list)
    verification: "VerificationReport | None" = None
    degradations: "list[DegradationEvent]" = field(default_factory=list)
    evicted: list[int] = field(default_factory=list)
    events: "list[SimEvent]" = field(default_factory=list)
    metrics: "MetricsSnapshot | None" = None

    @property
    def n_accepted(self) -> int:
        return len(self.accepted)

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of requests admitted."""
        return self.n_accepted / self.n_requests if self.n_requests else 0.0

    @property
    def rejection_percentage(self) -> float:
        """The paper's headline metric, in percent."""
        return 100.0 * self.n_rejected / self.n_requests if self.n_requests else 0.0

    @property
    def normalized_energy(self) -> float:
        """Total energy divided by the trace's energy demand (Fig. 3)."""
        return self.total_energy / self.energy_demand if self.energy_demand else 0.0

    def summary(self) -> dict:
        """A JSON-friendly summary for experiment aggregation."""
        return {
            "n_requests": self.n_requests,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "rejection_percentage": self.rejection_percentage,
            "total_energy": self.total_energy,
            "normalized_energy": self.normalized_energy,
            "wasted_energy": self.wasted_energy,
            "migration_energy": self.migration_energy,
            "migration_count": self.migration_count,
            "abort_count": self.abort_count,
            "predictions_used": self.predictions_used,
            "solver_calls_total": self.solver_calls_total,
            "n_degradations": len(self.degradations),
            "n_evicted": len(self.evicted),
        }
