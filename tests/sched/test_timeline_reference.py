"""Cross-validation of the event-driven timeline against a brute-force
time-stepped reference simulator.

The reference executes the resource in tiny fixed time quanta, applying
the scheduling rules naively (EDF among arrived jobs; no preemption and
future-jobs-at-boundaries-only on non-preemptable resources).  It shares
no code with :func:`repro.sched.timeline.build_timeline`, so agreement on
random job sets is strong evidence that the event-driven implementation
realises the intended semantics.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.timeline import (
    EPS,
    FutureJob,
    ReadyJob,
    Timeline,
    build_timeline,
)

QUANTUM = 0.01


def reference_finish_times(ready_jobs, future_jobs, *, preemptable):
    """Time-stepped reference scheduler (test oracle)."""
    remaining = {j.job_id: j.exec_time for j in ready_jobs}
    remaining.update({j.job_id: j.exec_time for j in future_jobs})
    arrival = {j.job_id: 0.0 for j in ready_jobs}
    arrival.update({j.job_id: j.arrival for j in future_jobs})
    deadline = {j.job_id: j.deadline for j in ready_jobs}
    deadline.update({j.job_id: j.deadline for j in future_jobs})
    forced = next(
        (j.job_id for j in ready_jobs if j.must_run_first), None
    )
    if preemptable:
        forced = None

    finish: dict[int, float] = {}
    time = 0.0
    running: int | None = None
    guard = 0
    while len(finish) < len(remaining):
        guard += 1
        assert guard < 1_000_000, "reference scheduler runaway"
        ready = [
            job_id
            for job_id in remaining
            if job_id not in finish and arrival[job_id] <= time + 1e-12
        ]
        if not ready:
            time = min(
                arrival[j] for j in remaining if j not in finish
            )
            continue
        if preemptable:
            # EDF with preemption: re-chosen every quantum.
            running = min(ready, key=lambda j: (deadline[j], j))
        else:
            # Non-preemptive: pick only when nothing is mid-execution.
            if running is None or running in finish:
                if forced is not None and forced not in finish:
                    running = forced
                else:
                    running = min(ready, key=lambda j: (deadline[j], j))
        step = min(QUANTUM, remaining[running])
        remaining[running] -= step
        time += step
        if remaining[running] <= 1e-12:
            finish[running] = time
    return finish


jobs_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),  # exec quanta
        st.integers(min_value=1, max_value=300),  # deadline quanta
    ),
    min_size=0,
    max_size=4,
)
futures_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),  # arrival quanta
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=300),
    ),
    min_size=0,
    max_size=2,
)


@given(jobs_strategy, futures_strategy, st.booleans())
@settings(max_examples=120, deadline=None)
def test_event_driven_matches_time_stepped_reference(
    ready_spec, future_spec, preemptable
):
    # Quantised inputs so the reference's fixed step introduces no error.
    ready_jobs = [
        ReadyJob(i, n * QUANTUM, d * QUANTUM)
        for i, (n, d) in enumerate(ready_spec)
    ]
    future_jobs = [
        FutureJob(100 + i, a * QUANTUM, n * QUANTUM, (a + 1 + d) * QUANTUM)
        for i, (a, n, d) in enumerate(future_spec)
    ]
    timeline = build_timeline(
        ready_jobs, future_jobs, start_time=0.0, preemptable=preemptable
    )
    reference = reference_finish_times(
        ready_jobs, future_jobs, preemptable=preemptable
    )
    assert set(timeline.finish_times) == set(reference)
    for job_id, expected in reference.items():
        assert timeline.finish_times[job_id] == pytest.approx(
            expected, abs=QUANTUM / 2
        ), (job_id, timeline.finish_times, reference)


op_strategy = st.tuples(
    st.sampled_from(
        ["insert", "insert_future", "insert_tiny", "remove", "probe",
         "probe_future", "probe_insert", "probe_insert_other"]
    ),
    st.integers(min_value=1, max_value=40),  # exec quanta
    st.integers(min_value=1, max_value=300),  # deadline quanta
    st.integers(min_value=0, max_value=120),  # arrival quanta
    st.integers(min_value=0, max_value=10**6),  # selector (removal/forced)
)


def _has_forced(shadow):
    return any(
        isinstance(job, ReadyJob) and job.must_run_first
        for job in shadow.values()
    )


# Offsets from a sequential finish: the probe's ``deadline + EPS``
# comparison decides on exactly these.
BOUNDARY_OFFSETS = (0.0, EPS / 2, -EPS / 2, EPS, -EPS, 2 * EPS, -2 * EPS)


def _expected_probe(shadow, probe_job, preemptable) -> bool:
    with_probe = list(shadow.values()) + [probe_job]
    return build_timeline(
        [j for j in with_probe if isinstance(j, ReadyJob)],
        [j for j in with_probe if isinstance(j, FutureJob)],
        start_time=0.0,
        preemptable=preemptable,
    ).feasible


def _boundary_job(shadow, job_id, exec_q, deadline_q, selector, preemptable):
    """A ready job, not forced, for the probe-then-insert ops.  Every
    other draw puts its deadline at a :data:`BOUNDARY_OFFSETS` distance
    from its sequential finish as the last job of the current set."""
    exec_time = exec_q * QUANTUM
    deadline = deadline_q * QUANTUM
    if (selector // 7) % 2 == 0:
        current = build_timeline(
            [j for j in shadow.values() if isinstance(j, ReadyJob)],
            [j for j in shadow.values() if isinstance(j, FutureJob)],
            start_time=0.0,
            preemptable=preemptable,
        )
        finish = max(current.finish_times.values(), default=0.0) + exec_time
        deadline = finish + BOUNDARY_OFFSETS[(selector // 14) % 7]
    return ReadyJob(job_id, exec_time, deadline)


def _check_replay(ops, preemptable):
    """The slack/feasibility cache of :class:`Timeline` must stay
    *bit-identical* to a freshly built, uncached ``build_timeline`` replay
    under arbitrary insert/remove/probe sequences (strict ``==``, no
    tolerance — this is the contract the hot path relies on).

    ``probe_insert`` probes a job and then inserts it, the shape the
    heuristic uses and the one the probe's kept finishes are spliced
    for.  ``probe_insert_other`` probes a job, inserts or removes a
    different one, and only then inserts the probed job, so finishes
    kept across the edit would show."""
    timeline = Timeline(start_time=0.0, preemptable=preemptable)
    shadow: dict[int, ReadyJob | FutureJob] = {}
    next_id = 0
    for op, exec_q, deadline_q, arrival_q, selector in ops:
        if op in ("probe_insert", "probe_insert_other"):
            job = _boundary_job(
                shadow, next_id, exec_q, deadline_q, selector, preemptable
            )
            next_id += 1
            verdict = timeline.probe(job.job_id, job.exec_time, job.deadline)
            assert verdict == _expected_probe(shadow, job, preemptable)
            if op == "probe_insert_other":
                if shadow and selector % 2:
                    victim = sorted(shadow)[selector % len(shadow)]
                    del shadow[victim]
                    timeline.remove(victim)
                else:
                    other = ReadyJob(next_id, exec_q * QUANTUM, job.deadline)
                    next_id += 1
                    timeline.insert(
                        other.job_id, other.exec_time, other.deadline
                    )
                    shadow[other.job_id] = other
            timeline.insert(job.job_id, job.exec_time, job.deadline)
            shadow[job.job_id] = job
        elif op == "insert_future":
            job = FutureJob(
                next_id,
                arrival_q * QUANTUM,
                exec_q * QUANTUM,
                (arrival_q + deadline_q) * QUANTUM,
            )
            timeline.insert(
                job.job_id, job.exec_time, job.deadline, arrival=job.arrival
            )
            shadow[next_id] = job
            next_id += 1
        elif op in ("insert", "insert_tiny"):
            exec_time = 1e-12 if op == "insert_tiny" else exec_q * QUANTUM
            forced = selector % 7 == 0 and not _has_forced(shadow)
            job = ReadyJob(
                next_id, exec_time, deadline_q * QUANTUM, must_run_first=forced
            )
            timeline.insert(
                job.job_id, exec_time, job.deadline, must_run_first=forced
            )
            shadow[next_id] = job
            next_id += 1
        elif op == "remove":
            if not shadow:
                continue
            job_id = sorted(shadow)[selector % len(shadow)]
            del shadow[job_id]
            timeline.remove(job_id)
        else:  # probe / probe_future: non-mutating feasibility query
            probe_id = 10_000 + next_id
            next_id += 1
            arrival = arrival_q * QUANTUM if op == "probe_future" else None
            forced = (
                arrival is None
                and selector % 5 == 0
                and not _has_forced(shadow)
            )
            probe_job: ReadyJob | FutureJob
            if arrival is None:
                probe_job = ReadyJob(
                    probe_id,
                    exec_q * QUANTUM,
                    deadline_q * QUANTUM,
                    must_run_first=forced,
                )
            else:
                probe_job = FutureJob(
                    probe_id,
                    arrival,
                    exec_q * QUANTUM,
                    (arrival_q + deadline_q) * QUANTUM,
                )
            verdict = timeline.probe(
                probe_id,
                probe_job.exec_time,
                probe_job.deadline,
                arrival=arrival,
                must_run_first=forced,
            )
            expected = _expected_probe(shadow, probe_job, preemptable)
            assert verdict == expected, (op, probe_job)

        # After every op the cached answers must equal an uncached replay.
        reference = build_timeline(
            [j for j in shadow.values() if isinstance(j, ReadyJob)],
            [j for j in shadow.values() if isinstance(j, FutureJob)],
            start_time=0.0,
            preemptable=preemptable,
        )
        assert timeline.feasible() == reference.feasible
        assert timeline.finish_times() == dict(reference.finish_times)
        deadlines = {j.job_id: j.deadline for j in shadow.values()}
        if reference.finish_times:
            expected_min = min(
                deadlines[job_id] - end
                for job_id, end in reference.finish_times.items()
            )
            assert timeline.min_slack() == expected_min
            for job_id, end in reference.finish_times.items():
                assert timeline.slack(job_id) == deadlines[job_id] - end
        else:
            assert timeline.min_slack() == float("inf")
        assert len(timeline) == len(shadow)
        assert timeline.job_ids() == tuple(sorted(shadow))


@given(st.lists(op_strategy, min_size=1, max_size=30), st.booleans())
@settings(max_examples=60, deadline=None)
def test_incremental_timeline_matches_fresh_replay(ops, preemptable):
    _check_replay(ops, preemptable)


@pytest.mark.slow
@given(st.lists(op_strategy, min_size=1, max_size=30), st.booleans())
@settings(max_examples=5000, deadline=None)
def test_incremental_timeline_matches_fresh_replay_slow(ops, preemptable):
    """The same replay with a budget large enough to reach the rare
    boundary draws."""
    _check_replay(ops, preemptable)


def test_reference_sanity_forced_first():
    ready = [
        ReadyJob(0, 4 * QUANTUM, 300 * QUANTUM, must_run_first=True),
        ReadyJob(1, 2 * QUANTUM, 10 * QUANTUM),
    ]
    reference = reference_finish_times(ready, [], preemptable=False)
    assert reference[0] == pytest.approx(4 * QUANTUM)
    assert reference[1] == pytest.approx(6 * QUANTUM)
