"""The fault-aware invariants must catch broken degradation paths.

Positive direction: real fault-injected runs verify clean.  Negative
direction (the ISSUE's acceptance criterion): deliberately tampered
degradation bookkeeping — a claimed outage that the schedule ignores, an
eviction list out of sync with its events, a predictor fault that
"still used" a prediction — is caught as a structured Violation.
"""

from __future__ import annotations

import pytest

from repro.analysis.invariants import verify_result
from repro.faults.events import DegradationEvent
from repro.faults.plan import FaultPlan, PredictorFault, ResourceOutage
from repro.sim.simulator import SimulationConfig, simulate


def _gpu_outage_plan(trace, platform) -> FaultPlan:
    span = trace.stats().span or 100.0
    return FaultPlan(
        outages=(
            ResourceOutage(platform.size - 1, span / 3.0, 2.0 * span / 3.0),
        )
    )


def _run(trace, platform, plan, predictor="oracle"):
    config = SimulationConfig(
        fault_plan=plan, collect_execution_log=True, collect_records=True
    )
    return simulate(trace, platform, "heuristic", predictor, config)


class TestFaultedRunsVerifyClean:
    def test_outage_run_is_clean(self, tiny_trace, platform):
        plan = _gpu_outage_plan(tiny_trace, platform)
        result = _run(tiny_trace, platform, plan)
        assert result.degradations  # the run really degraded
        report = verify_result(tiny_trace, platform, result, faults=plan)
        assert report.ok, report.render()

    def test_predictor_fault_run_is_clean(self, tiny_trace, platform):
        span = tiny_trace.stats().span or 100.0
        plan = FaultPlan(
            predictor_faults=(PredictorFault("exception", 0.0, span),)
        )
        result = _run(tiny_trace, platform, plan)
        report = verify_result(tiny_trace, platform, result, faults=plan)
        assert report.ok, report.render()


class TestTamperedDegradations:
    def test_claimed_outage_with_overlapping_spans(self, tiny_trace, platform):
        # A clean run verified against a plan that *claims* the GPU was
        # down mid-trace: the schedule keeps using it, so the
        # down-resource invariant must fire.
        clean = _run(tiny_trace, platform, None)
        lying_plan = _gpu_outage_plan(tiny_trace, platform)
        report = verify_result(
            tiny_trace, platform, clean, faults=lying_plan
        )
        assert not report.ok
        assert "down-resource" in report.codes()

    def test_evicted_without_event(self, tiny_trace, platform):
        plan = _gpu_outage_plan(tiny_trace, platform)
        result = _run(tiny_trace, platform, plan)
        baseline = verify_result(tiny_trace, platform, result, faults=plan)
        assert baseline.ok
        # claim an eviction the events don't back up
        result.evicted.append(result.accepted[0])
        report = verify_result(tiny_trace, platform, result, faults=plan)
        assert "eviction-accounting" in report.codes()

    def test_eviction_event_without_evicted_entry(self, tiny_trace, platform):
        plan = _gpu_outage_plan(tiny_trace, platform)
        result = _run(tiny_trace, platform, plan)
        result.degradations.append(
            DegradationEvent(
                time=0.0, kind="job-evicted", job_id=result.accepted[0]
            )
        )
        report = verify_result(tiny_trace, platform, result, faults=plan)
        assert "eviction-accounting" in report.codes()

    def test_predictor_fault_that_kept_its_prediction(
        self, tiny_trace, platform
    ):
        result = _run(tiny_trace, platform, None)
        used = next(r for r in result.records if r.used_prediction)
        result.degradations.append(
            DegradationEvent(
                time=used.decision_time,
                kind="predictor-exception",
                request_index=used.request_index,
            )
        )
        report = verify_result(tiny_trace, platform, result)
        assert "predictor-fallback" in report.codes()

    def test_predictor_fault_without_record(self, tiny_trace, platform):
        result = _run(tiny_trace, platform, None)
        result.degradations.append(
            DegradationEvent(
                time=0.0,
                kind="predictor-timeout",
                request_index=len(tiny_trace) + 5,
            )
        )
        report = verify_result(tiny_trace, platform, result)
        assert "predictor-fallback" in report.codes()


def test_smoke_fixture_broken_path_is_caught(tiny_trace, platform):
    """End-to-end flavour of the acceptance criterion: the verified
    smoke machinery itself flags a broken degradation path."""
    plan = _gpu_outage_plan(tiny_trace, platform)
    result = _run(tiny_trace, platform, plan)
    # drop every job-evicted event while keeping the evicted list
    if not result.evicted:
        pytest.skip("this trace displaces without evicting")
    result.degradations = [
        e for e in result.degradations if e.kind != "job-evicted"
    ]
    report = verify_result(tiny_trace, platform, result, faults=plan)
    assert not report.ok
    assert "eviction-accounting" in report.codes()
