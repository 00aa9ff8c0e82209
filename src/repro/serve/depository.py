"""Central resource-usage depository (Elasecutor-style aggregation).

Elasecutor keeps per-node monitor surrogates feeding one central
*resource usage depository*, and triggers reprovisioning when observed
usage diverges from the predicted profile.  The live service mirrors
that shape at admission granularity:

* every decision the dispatcher makes is folded into one
  :class:`TenantUsage` record per tenant (the "surrogate" view: counts
  by outcome, active jobs, last decision time);
* every usable forecast is scored against the request that actually
  arrived next, over a sliding window; when the windowed error rate
  crosses the configured threshold, :meth:`UsageDepository.should_reprovision`
  trips and the server reacts (prediction cooldown + re-solve of the
  active mapping — see :class:`repro.serve.server.AdmissionServer`).

The depository is plain bookkeeping — no clocks, no I/O — so it is
trivially testable and identical between replay and live sessions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

__all__ = ["REPROVISION_COOLDOWN", "TenantUsage", "UsageDepository"]

#: Decisions after a reprovision pass during which the server suppresses
#: predictions (the no-prediction fallback path).
REPROVISION_COOLDOWN = 16


@dataclass
class TenantUsage:
    """Aggregated admission state of one tenant."""

    tenant: str
    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    shed: int = 0
    over_quota: int = 0
    active_jobs: int = 0
    completed_jobs: int = 0
    last_decision_time: float = 0.0

    @property
    def acceptance_rate(self) -> float:
        """Accepted fraction of everything submitted (0.0 when idle)."""
        if self.submitted == 0:
            return 0.0
        return self.accepted / self.submitted

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "over_quota": self.over_quota,
            "active_jobs": self.active_jobs,
            "completed_jobs": self.completed_jobs,
            "acceptance_rate": self.acceptance_rate,
            "last_decision_time": self.last_decision_time,
        }


@dataclass
class _ErrorWindow:
    """Sliding window of forecast hit/miss outcomes."""

    size: int
    outcomes: deque = field(init=False)

    def __post_init__(self) -> None:
        self.outcomes = deque(maxlen=self.size)


class UsageDepository:
    """Per-tenant admission state plus the prediction-error trigger.

    Parameters
    ----------
    error_window:
        How many scored forecasts the sliding error window holds.
    error_threshold:
        Windowed error rate above which :meth:`should_reprovision`
        trips (strictly greater; ``1.0`` disables the trigger short of
        an all-miss window... which still trips, as ``> 1.0`` never
        holds — pass ``math.inf`` to disable outright).
    min_observations:
        Forecasts that must be scored before the trigger can trip, so
        one early miss does not thrash the service.
    arrival_tolerance:
        Absolute arrival error (simulation time units) beyond which a
        type-correct forecast still counts as a miss; ``inf`` (default)
        scores type agreement only.
    """

    def __init__(
        self,
        *,
        error_window: int = 32,
        error_threshold: float = 0.5,
        min_observations: int = 8,
        arrival_tolerance: float = math.inf,
    ) -> None:
        if error_window < 1:
            raise ValueError(f"error_window must be >= 1, got {error_window}")
        if min_observations < 1:
            raise ValueError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        self.error_threshold = error_threshold
        self.min_observations = min_observations
        self.arrival_tolerance = arrival_tolerance
        self._tenants: dict[str, TenantUsage] = {}
        self._errors = _ErrorWindow(error_window)
        self._scored = 0
        self._misses_total = 0
        self.reprovisions = 0

    # ------------------------------------------------------------------
    # Tenant bookkeeping
    # ------------------------------------------------------------------

    def tenant(self, name: str) -> TenantUsage:
        """The (created-on-first-use) usage record of one tenant."""
        usage = self._tenants.get(name)
        if usage is None:
            usage = self._tenants[name] = TenantUsage(tenant=name)
        return usage

    def tenants(self) -> tuple[TenantUsage, ...]:
        """All tenant records, name-sorted (stable for reporting)."""
        return tuple(
            self._tenants[name] for name in sorted(self._tenants)
        )

    def record_decision(
        self, tenant: str, status: str, decision_time: float
    ) -> TenantUsage:
        """Fold one admission outcome into the tenant's record."""
        usage = self.tenant(tenant)
        usage.submitted += 1
        usage.last_decision_time = decision_time
        if status == "accepted":
            usage.accepted += 1
            usage.active_jobs += 1
        elif status == "rejected":
            usage.rejected += 1
        elif status == "shed":
            usage.shed += 1
        elif status == "over-quota":
            usage.over_quota += 1
        else:
            raise ValueError(f"unknown decision status {status!r}")
        return usage

    def record_completion(self, tenant: str, n: int = 1) -> None:
        """``n`` of the tenant's admitted jobs finished executing."""
        usage = self.tenant(tenant)
        usage.active_jobs = max(0, usage.active_jobs - n)
        usage.completed_jobs += n

    def remove_tenant(self, name: str) -> bool:
        """Forget one tenant's usage record (offboarding).

        Returns whether the tenant existed.  The prediction-error
        window is deliberately left alone: scored forecasts are a
        service-level signal, not per-tenant state.  A completion or
        decision arriving for a removed tenant recreates the record
        from zero (so mid-flight jobs cannot drive counters negative).
        """
        return self._tenants.pop(name, None) is not None

    def active_jobs(self, tenant: str) -> int:
        usage = self._tenants.get(tenant)
        return 0 if usage is None else usage.active_jobs

    # ------------------------------------------------------------------
    # Prediction scoring / reprovision trigger
    # ------------------------------------------------------------------

    def score_forecast(
        self,
        *,
        predicted_type: int,
        actual_type: int,
        predicted_arrival: float | None = None,
        actual_arrival: float | None = None,
    ) -> bool:
        """Score one forecast against the request that actually arrived.

        Returns ``True`` for a miss.  Arrival error is only scored when
        both arrivals are known and ``arrival_tolerance`` is finite.
        """
        miss = predicted_type != actual_type
        if (
            not miss
            and predicted_arrival is not None
            and actual_arrival is not None
            and math.isfinite(self.arrival_tolerance)
        ):
            miss = (
                abs(predicted_arrival - actual_arrival)
                > self.arrival_tolerance
            )
        self._errors.outcomes.append(miss)
        self._scored += 1
        if miss:
            self._misses_total += 1
        return miss

    @property
    def scored_forecasts(self) -> int:
        """Total forecasts scored over the session."""
        return self._scored

    def error_rate(self) -> float:
        """Miss fraction over the sliding window (0.0 when unscored)."""
        window = self._errors.outcomes
        if not window:
            return 0.0
        return sum(window) / len(window)

    def window_state(self) -> tuple[bool, ...]:
        """The sliding window's miss flags, oldest first (exposed so the
        engine fingerprint can cover trigger state exactly)."""
        return tuple(self._errors.outcomes)

    def should_reprovision(self) -> bool:
        """Whether the windowed error rate demands a reprovision pass."""
        window = self._errors.outcomes
        if len(window) < self.min_observations:
            return False
        return self.error_rate() > self.error_threshold

    def mark_reprovisioned(self) -> None:
        """Reset the window after the server reacted, so one bad spell
        triggers one reprovision pass, not one per decision."""
        self._errors.outcomes.clear()
        self.reprovisions += 1

    def clear_error_window(self) -> None:
        """Drop the forecast-error window without counting a reprovision.

        Called when the predictor takes itself offline (the drift
        wrapper's fallback): no further forecasts will be scored, so a
        stale excursion must not trip :meth:`should_reprovision` on
        errors from a model that no longer exists.
        """
        self._errors.outcomes.clear()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe view served by the ``stats`` control op."""
        return {
            "tenants": [usage.to_dict() for usage in self.tenants()],
            "prediction": {
                "scored": self._scored,
                "misses": self._misses_total,
                "window_error_rate": self.error_rate(),
                "reprovisions": self.reprovisions,
            },
        }
