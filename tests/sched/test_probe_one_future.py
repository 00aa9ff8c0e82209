"""Differential suite for the one-pending-future probe fast path.

``Timeline.probe`` used to fall back to a full :func:`build_timeline`
replay whenever the probed job set held a pending future arrival — the
dominant cost of the admission loop under lookahead prediction.  The
fast path (:meth:`Timeline._probe_one_future_fast`) answers the
single-future shapes from the cached chain arrays with bit-identical
float arithmetic.  Every test here compares the public ``probe`` answer
against the authoritative ``_probe_reference`` replay on the same
timeline, so any divergence — including a single flipped EPS comparison
— fails loudly.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.timeline import EPS, Timeline

QUANTA = 0.125  # exactly representable: keeps case generation unbiased


def build(start, preemptable, chain, forced, future):
    """A timeline from quantised specs.

    ``chain`` is ``[(exec_q, deadline_q), ...]``, ``forced`` an optional
    ``(exec_q, deadline_q)`` running job, ``future`` an optional
    ``(arrival_q, exec_q, deadline_q)`` pending arrival.
    """
    timeline = Timeline(start_time=start, preemptable=preemptable)
    job_id = 0
    if forced is not None:
        exec_q, deadline_q = forced
        timeline.insert(
            job_id,
            exec_q * QUANTA,
            start + deadline_q * QUANTA,
            must_run_first=True,
        )
        job_id += 1
    for exec_q, deadline_q in chain:
        timeline.insert(job_id, exec_q * QUANTA, start + deadline_q * QUANTA)
        job_id += 1
    if future is not None:
        arrival_q, exec_q, deadline_q = future
        timeline.insert(
            job_id,
            exec_q * QUANTA,
            start + deadline_q * QUANTA,
            arrival=start + arrival_q * QUANTA,
        )
        job_id += 1
    return timeline, job_id


def assert_probe_matches_reference(timeline, job_id, exec_time, deadline,
                                   arrival):
    expected = timeline._probe_reference(
        job_id, exec_time, deadline, arrival=arrival, must_run_first=False
    )
    actual = timeline.probe(job_id, exec_time, deadline, arrival=arrival)
    assert actual == expected


chain_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=24),   # exec quanta
        st.integers(min_value=1, max_value=120),  # deadline quanta
    ),
    min_size=0,
    max_size=6,
)
forced_strategy = st.none() | st.tuples(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=120),
)
job_strategy = st.tuples(
    st.integers(min_value=1, max_value=96),   # arrival quanta
    st.integers(min_value=1, max_value=24),   # exec quanta
    st.integers(min_value=1, max_value=140),  # deadline quanta
)


class TestFutureProbeAgainstChain:
    """Probing the predicted (future) job against a futures-free chain."""

    @given(
        chain=chain_strategy,
        forced=forced_strategy,
        probe=job_strategy,
        preemptable=st.booleans(),
        start=st.sampled_from([0.0, 7.25]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, chain, forced, probe, preemptable,
                               start):
        timeline, job_id = build(start, preemptable, chain, forced, None)
        arrival_q, exec_q, deadline_q = probe
        assert_probe_matches_reference(
            timeline,
            job_id,
            exec_q * QUANTA,
            start + deadline_q * QUANTA,
            start + arrival_q * QUANTA,
        )


class TestReadyProbeAgainstPendingFuture:
    """Probing a ready job against a chain holding one pending future."""

    @given(
        chain=chain_strategy,
        forced=forced_strategy,
        future=job_strategy,
        probe=st.tuples(
            st.integers(min_value=1, max_value=24),
            st.integers(min_value=1, max_value=140),
        ),
        preemptable=st.booleans(),
        start=st.sampled_from([0.0, 7.25]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, chain, forced, future, probe,
                               preemptable, start):
        timeline, job_id = build(start, preemptable, chain, forced, future)
        exec_q, deadline_q = probe
        assert_probe_matches_reference(
            timeline,
            job_id,
            exec_q * QUANTA,
            start + deadline_q * QUANTA,
            None,
        )


class TestEpsilonBoundaries:
    """Arrivals snapped exactly onto completion boundaries (the region
    where a single flipped EPS comparison would change the answer)."""

    @given(
        chain=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=24),
                st.integers(min_value=1, max_value=120),
            ),
            min_size=1,
            max_size=5,
        ),
        pick=st.integers(min_value=0, max_value=4),
        offset=st.sampled_from(
            [0.0, EPS, -EPS, EPS / 2, -EPS / 2, 2 * EPS, -2 * EPS]
        ),
        probe=st.tuples(
            st.integers(min_value=1, max_value=24),
            st.integers(min_value=1, max_value=140),
        ),
        preemptable=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_boundary_snapped_arrival(self, chain, pick, offset, probe,
                                      preemptable):
        timeline, job_id = build(0.0, preemptable, chain, None, None)
        finishes = sorted(timeline.finish_times().values())
        arrival = finishes[pick % len(finishes)] + offset
        if arrival <= EPS:
            return  # an effectively-ready probe exercises no fallback
        exec_q, deadline_q = probe
        assert_probe_matches_reference(
            timeline, job_id, exec_q * QUANTA, deadline_q * QUANTA, arrival
        )


class TestOutsideTheProof:
    """Shapes the fast path must decline, answered by the replay."""

    def test_two_pending_futures_still_exact(self):
        timeline, job_id = build(
            0.0, True, [(8, 40), (8, 60)], None, (16, 8, 80)
        )
        timeline.insert(job_id, 1.0, 12.0, arrival=3.0)
        assert_probe_matches_reference(timeline, job_id + 1, 1.0, 11.0, 5.0)

    def test_tiny_future_still_exact(self):
        timeline = Timeline(start_time=0.0, preemptable=True)
        timeline.insert(0, 2.0, 8.0)
        timeline.insert(1, EPS / 2, 9.0, arrival=4.0)  # never scheduled
        assert_probe_matches_reference(timeline, 2, 1.0, 10.0, None)

    def test_must_run_first_probe_still_exact(self):
        timeline, job_id = build(0.0, False, [(8, 40)], None, (16, 8, 80))
        expected = timeline._probe_reference(
            job_id, 1.0, 2.0, arrival=None, must_run_first=True
        )
        actual = timeline.probe(job_id, 1.0, 2.0, must_run_first=True)
        assert actual == expected


def unquantised(low: float, high: float):
    """Floats in ``[low, high]`` whose mantissas use every bit, so sums
    round (multiples of :data:`QUANTA` add exactly)."""
    scale = 10**7
    return st.integers(
        min_value=int(low * scale), max_value=int(high * scale)
    ).map(lambda n: n / scale)


def deadline_near(finish: float, ulps: int) -> float:
    """A deadline whose ``deadline + EPS`` lands within a few ulps of
    ``finish``, on either side."""
    deadline = finish - EPS
    for _ in range(abs(ulps)):
        deadline = math.nextafter(deadline, math.copysign(math.inf, ulps))
    return deadline


def check_near_the_split(
    start, execs, split, ulps, f_exec, f_slack, probe_ready, preemptable
):
    """The arrival falls inside the first chain job.  That job's
    deadline sits a few ulps from its finish once split, the later
    jobs' deadlines a few ulps from their sequential finishes.  With
    ``probe_ready`` the future is in the timeline and the last chain job
    is the probe."""
    arrival = start + split / 1000 * execs[0]
    if arrival <= start + EPS:
        return  # an effectively-ready arrival is not split
    split_finish = arrival + (execs[0] - (arrival - start))
    chain = [(0, execs[0], deadline_near(split_finish, ulps))]
    finish = start + execs[0]
    for job_id, exec_time in enumerate(execs[1:], start=1):
        finish = finish + exec_time
        chain.append((job_id, exec_time, deadline_near(finish, ulps)))
    if any(a[2] >= b[2] for a, b in zip(chain, chain[1:], strict=False)):
        return  # keep the chain in EDF order
    future = (100, f_exec, arrival + f_exec + f_slack)
    timeline = Timeline(start_time=start, preemptable=preemptable)
    if probe_ready and len(chain) > 1:
        *chain, probe = chain
        for job in chain:
            timeline.insert(*job)
        timeline.insert(*future, arrival=arrival)
        probe_id, exec_time, deadline = probe
        assert_probe_matches_reference(
            timeline, probe_id, exec_time, deadline, None
        )
    else:
        for job in chain:
            timeline.insert(*job)
        assert_probe_matches_reference(timeline, *future, arrival)


# Draws for check_near_the_split, shared by its tier-1 and slow tests.
NEAR_THE_SPLIT = {
    "start": unquantised(0.0, 100.0),
    "execs": st.lists(unquantised(0.01, 50.0), min_size=1, max_size=3),
    "split": st.integers(min_value=1, max_value=999),
    "ulps": st.integers(min_value=-3, max_value=3),
    "f_exec": unquantised(0.01, 5.0),
    "f_slack": unquantised(0.0, 200.0),
    "probe_ready": st.booleans(),
    "preemptable": st.booleans(),
}


class TestSplitRounding:
    """A preempting arrival splits a job into ``a - t0`` and
    ``exec - (a - t0)``, and ``a + (exec - (a - t0))`` can round one ulp
    below ``t0 + exec``.  A chain that misses its deadline by that ulp on
    its own then meets it once the arrival splits it, so "the chain
    already misses" is no reason to refuse the probe."""

    def test_split_job_meets_a_deadline_the_chain_alone_misses(self):
        timeline = Timeline(start_time=1.045901235078417, preemptable=True)
        timeline.insert(0, 47.18312351449605, 48.22902474857447)
        assert timeline.feasible() is False
        args = (10**9, 0.5, 148.22902474957448)
        arrival = 15.787991109611628
        assert timeline._probe_reference(
            *args, arrival=arrival, must_run_first=False
        ) is True
        assert timeline.probe(*args, arrival=arrival) is True

    @given(**NEAR_THE_SPLIT)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_near_the_split(
        self, start, execs, split, ulps, f_exec, f_slack, probe_ready,
        preemptable,
    ):
        check_near_the_split(
            start, execs, split, ulps, f_exec, f_slack, probe_ready,
            preemptable,
        )

    @pytest.mark.slow
    @given(**NEAR_THE_SPLIT)
    @settings(max_examples=5000, deadline=None)
    def test_matches_reference_near_the_split_slow(
        self, start, execs, split, ulps, f_exec, f_slack, probe_ready,
        preemptable,
    ):
        check_near_the_split(
            start, execs, split, ulps, f_exec, f_slack, probe_ready,
            preemptable,
        )

