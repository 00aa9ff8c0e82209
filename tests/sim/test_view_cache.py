"""The cached :meth:`JobState.planned_view` against a fresh view.

``planned_view`` returns the view it built at an earlier call while the
five fields it copies are unchanged.  These tests check, at every RM
activation of the paper's LT and VT workloads, of a run with a resource
outage and of a serve journal replay, that each cached view equals a
``PlannedTask`` built from the job's state right now.  ``repr`` is
compared as well as ``==``, so a ``-0.0`` against a ``0.0`` counts as a
difference.
"""

from __future__ import annotations

import pytest

from repro.core.context import PlannedTask
from repro.core.heuristic import HeuristicResourceManager
from repro.experiments.common import standard_platform, standard_traces
from repro.experiments.config import HarnessScale
from repro.faults.plan import FaultPlan, ResourceOutage
from repro.model.request import Request
from repro.serve.protocol import AdmitRequest
from repro.serve.server import AdmissionEngine, ServeConfig, recover_engine
from repro.sim.simulator import SimulationConfig, simulate
from repro.sim.state import JobState, PlatformState
from repro.workload.tracegen import DeadlineGroup

from tests.conftest import make_task


def fresh_view(job: JobState) -> PlannedTask:
    """The view built from the job's state, with no cache involved."""
    return PlannedTask(
        job_id=job.job_id,
        task=job.task,
        absolute_deadline=job.absolute_deadline,
        remaining_fraction=job.remaining_fraction,
        current_resource=job.resource,
        started=job.started,
        running_non_preemptable=job.running_non_preemptable,
        pending_migration_time=job.pending_migration_time,
    )


class ViewAudit:
    """Wraps ``PlatformState.active_views``: every view it returns must
    equal a fresh one, and a second read must return the same object.
    Counts the views that were reused from the previous activation."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.activations = 0
        self.views = 0
        self.reused = 0
        self._previous: dict[int, PlannedTask] = {}
        original = PlatformState.active_views

        def audited(state: PlatformState) -> list[PlannedTask]:
            views = original(state)
            jobs = list(state.jobs.values())
            for job, view in zip(jobs, views, strict=True):
                expected = fresh_view(job)
                assert view == expected, (view, expected)
                assert repr(view) == repr(expected)
                assert job.planned_view() is view
                if self._previous.get(job.job_id) is view:
                    self.reused += 1
            self._previous = {view.job_id: view for view in views}
            self.activations += 1
            self.views += len(views)
            return views

        monkeypatch.setattr(PlatformState, "active_views", audited)


@pytest.mark.parametrize(
    ("group", "predictor"), [("LT", "learned"), ("VT", "off")]
)
def test_cached_views_match_fresh_views_on_paper_workloads(
    monkeypatch, group, predictor
):
    audit = ViewAudit(monkeypatch)
    platform = standard_platform()
    for trace in standard_traces(
        DeadlineGroup[group], HarnessScale(2, 60, master_seed=0)
    ):
        simulate(trace, platform, "heuristic", predictor)
    assert audit.activations >= 120
    # The cache must actually serve views, not just rebuild them.
    assert 0 < audit.reused < audit.views


def test_cached_views_match_fresh_views_under_a_resource_outage(monkeypatch):
    audit = ViewAudit(monkeypatch)
    platform = standard_platform()
    (trace,) = standard_traces(DeadlineGroup.LT, HarnessScale(1, 60))
    span = trace.stats().span
    plan = FaultPlan(
        seed=0,
        outages=(ResourceOutage(platform.size - 1, span / 3, 2 * span / 3),),
    )
    result = simulate(
        trace,
        platform,
        "heuristic",
        "oracle",
        SimulationConfig(fault_plan=plan),
    )
    kinds = {event.kind for event in result.degradations}
    assert "resource-down" in kinds
    assert kinds & {"job-readmitted", "job-evicted"}
    assert audit.reused > 0


def test_cached_views_match_fresh_views_in_a_journal_replay(monkeypatch):
    platform = standard_platform()
    (trace,) = standard_traces(DeadlineGroup.LT, HarnessScale(1, 60))
    config = ServeConfig(mode="replay")

    def engine() -> AdmissionEngine:
        return AdmissionEngine(
            platform, HeuristicResourceManager(), None, trace.tasks, config
        )

    # Journal records of a first run, in the format the server writes.
    live = engine()
    records: list[dict] = []
    for seq, request in enumerate(trace.requests):
        frame = {
            "arrival": request.arrival,
            "deadline": request.deadline,
            "task": request.type_id,
            "tenant": "t0",
        }
        response = live.decide(
            AdmitRequest(
                tenant="t0",
                task=request.type_id,
                deadline=request.deadline,
                arrival=request.arrival,
            )
        )
        records.append({"k": "i", "seq": seq, "frame": frame})
        records.append(
            {
                "k": "d",
                "seq": seq,
                "arrival": request.arrival.hex(),
                "response": response.to_payload(),
            }
        )

    audit = ViewAudit(monkeypatch)
    replayed = engine()
    report = recover_engine(replayed, records)
    assert report.ok
    assert report.decisions == len(trace.requests)
    assert replayed.fingerprint() == live.fingerprint()
    assert audit.activations == len(trace.requests)
    assert audit.reused > 0


def test_planned_view_is_reused_until_a_field_changes():
    job = JobState(
        request=Request(index=7, arrival=0.0, type_id=0, deadline=50.0),
        task=make_task(),
    )
    first = job.planned_view()
    assert job.planned_view() is first
    assert first == fresh_view(job)
    changes = (
        ("resource", 1),
        ("remaining_fraction", 0.5),
        ("started", True),
        ("running_non_preemptable", True),
        ("pending_migration_time", 2.0),
    )
    view = first
    for name, value in changes:
        setattr(job, name, value)
        changed = job.planned_view()
        assert changed is not view, name
        assert changed == fresh_view(job), name
        assert job.planned_view() is changed, name
        view = changed


def test_cached_view_is_not_part_of_the_job_state():
    request = Request(index=1, arrival=0.0, type_id=0, deadline=50.0)
    job = JobState(request=request, task=make_task())
    other = JobState(request=request, task=make_task())
    job.planned_view()
    assert job == other
    assert "_view" not in repr(job)
