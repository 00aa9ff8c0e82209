"""Suffix-dirty refresh regression tests (the timeline_probe perf fix).

The incremental :class:`Timeline` used to rebuild its entire finish-time
chain on every mutation; the suffix-dirty rewrite re-derives only the
chain from the first inserted position, and one flag records a deadline
miss.  The hypothesis replay suite pins correctness broadly; these
targeted cases pin the bookkeeping paths directly — stacked inserts
before one refresh, prefix preservation, the kept-probe splice, and a
miss that later inserts cannot clear.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.timeline import FutureJob, ReadyJob, Timeline, build_timeline


def fresh_feasible(jobs: dict[int, tuple[float, float]]) -> bool:
    """Uncached oracle: feasibility of ``{job_id: (exec, deadline)}``."""
    timeline = build_timeline(
        [ReadyJob(job_id, exec_time, deadline)
         for job_id, (exec_time, deadline) in jobs.items()],
        [],
        start_time=0.0,
        preemptable=True,
    )
    return timeline.feasible


class TestStackedMutations:
    def test_many_inserts_before_first_query(self):
        timeline = Timeline(start_time=0.0, preemptable=True)
        jobs = {}
        for job_id in range(20):
            exec_time = 1.0 + (job_id % 3)
            deadline = 100.0 - job_id  # reverse order: every insert
            jobs[job_id] = (exec_time, deadline)  # lands at position 0
            timeline.insert(job_id, exec_time, deadline)
        assert timeline.feasible() == fresh_feasible(jobs)


    def test_prefix_untouched_by_suffix_mutation(self):
        timeline = Timeline(start_time=0.0, preemptable=True)
        for job_id in range(8):
            timeline.insert(job_id, 1.5, 5.0 * (job_id + 1))
        before = dict(timeline.finish_times())
        # Inserting at the tail must not move any earlier finish time by
        # even one ULP (sequential float addition order is preserved).
        timeline.insert(100, 1.0, 1000.0)
        after = dict(timeline.finish_times())
        assert {job_id: after[job_id] for job_id in before} == before
        assert after[100] == before[7] + 1.0

    def test_insert_at_front_recomputes_everything(self):
        timeline = Timeline(start_time=0.0, preemptable=True)
        jobs = {}
        for job_id in range(5):
            timeline.insert(job_id, 2.0, 50.0 + job_id)
            jobs[job_id] = (2.0, 50.0 + job_id)
        timeline.insert(9, 3.0, 1.0)  # deadline 1.0: position 0, misses
        jobs[9] = (3.0, 1.0)
        assert timeline.feasible() == fresh_feasible(jobs)


def fresh_finish_times(
    jobs: dict[int, tuple[float, float]], *, start_time: float = 0.0
) -> dict[int, float]:
    """Uncached oracle: finish times of ``{job_id: (exec, deadline)}``."""
    return dict(
        build_timeline(
            [ReadyJob(job_id, exec_time, deadline)
             for job_id, (exec_time, deadline) in jobs.items()],
            [],
            start_time=start_time,
            preemptable=True,
        ).finish_times
    )


class TestProbeSplice:
    """A feasible ready probe keeps its finishes; an insert of the same
    job splices them in instead of dirtying the chain."""

    @staticmethod
    def chain() -> tuple[Timeline, dict[int, tuple[float, float]]]:
        timeline = Timeline(start_time=0.3, preemptable=True)
        jobs = {job_id: (0.1 * (job_id + 1), 10.0 + job_id)
                for job_id in range(6)}
        for job_id, (exec_time, deadline) in jobs.items():
            timeline.insert(job_id, exec_time, deadline)
        assert timeline.feasible()
        return timeline, jobs

    def test_insert_after_feasible_probe_leaves_chain_clean(self):
        timeline, jobs = self.chain()
        assert timeline.probe(50, 0.7, 12.5) is True
        timeline.insert(50, 0.7, 12.5)
        assert timeline._dirty_from is None
        jobs[50] = (0.7, 12.5)
        assert timeline.finish_times() == fresh_finish_times(
            jobs, start_time=0.3
        )
        assert timeline.feasible()

    def test_insert_of_another_job_ignores_the_kept_probe(self):
        timeline, jobs = self.chain()
        # Same numbers, but job 2 (deadline 12.0) sorts between the two.
        assert timeline.probe(-1, 0.7, 12.0) is True
        timeline.insert(50, 0.7, 12.0)
        jobs[50] = (0.7, 12.0)
        assert timeline.finish_times() == fresh_finish_times(
            jobs, start_time=0.3
        )

    def test_mutation_between_probe_and_insert_drops_the_kept_probe(self):
        timeline, jobs = self.chain()
        assert timeline.probe(50, 0.7, 12.5) is True
        # Deadline 11.5 sorts ahead of the probed job's slot, so finishes
        # kept across this insert would be short by its execution.
        timeline.insert(60, 0.2, 11.5)
        jobs[60] = (0.2, 11.5)
        timeline.insert(50, 0.7, 12.5)
        jobs[50] = (0.7, 12.5)
        assert timeline.finish_times() == fresh_finish_times(
            jobs, start_time=0.3
        )

    def test_failed_probe_keeps_nothing(self):
        timeline, jobs = self.chain()
        assert timeline.probe(50, 30.0, 12.5) is False
        timeline.insert(50, 30.0, 12.5)
        jobs[50] = (30.0, 12.5)
        assert timeline._dirty_from is not None
        assert timeline.finish_times() == fresh_finish_times(
            jobs, start_time=0.3
        )
        assert not timeline.feasible()


# Later inserts: (kind, exec, deadline, arrival).  Futures with an
# arrival at the start join the chain; later ones stay pending.
later_inserts = st.lists(
    st.tuples(
        st.sampled_from(["ready", "forced", "tiny", "future"]),
        st.floats(min_value=0.01, max_value=4.0),
        st.floats(min_value=0.0, max_value=30.0),
        st.sampled_from([0.0, 0.5, 1.5, 2.9, 3.0, 4.5, 8.0]),
    ),
    min_size=1,
    max_size=10,
)


class TestMissStaysMissed:
    """The one miss flag rests on inserts only ever moving finishes
    later: once the chain misses, no insert clears the miss."""

    @given(later_inserts, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_inserts_after_a_miss_keep_feasible_and_ready_probes_false(
        self, inserts, preemptable
    ):
        timeline = Timeline(start_time=0.0, preemptable=preemptable)
        held: list[ReadyJob | FutureJob] = [
            ReadyJob(0, 3.0, 4.0),
            ReadyJob(1, 3.0, 5.0),  # finishes at 6.0: misses by 1.0
        ]
        for job in held:
            timeline.insert(job.job_id, job.exec_time, job.deadline)
        assert timeline.feasible() is False
        has_forced = False
        for job_id, (kind, exec_time, deadline, arrival) in enumerate(
            inserts, start=2
        ):
            job: ReadyJob | FutureJob
            if kind == "future":
                job = FutureJob(job_id, arrival, exec_time, deadline)
                timeline.insert(job_id, exec_time, deadline, arrival=arrival)
            else:
                forced = kind == "forced" and not has_forced
                has_forced = has_forced or forced
                if kind == "tiny":
                    exec_time = 1e-12
                job = ReadyJob(
                    job_id, exec_time, deadline, must_run_first=forced
                )
                timeline.insert(
                    job_id, exec_time, deadline, must_run_first=forced
                )
            held.append(job)
            assert timeline.feasible() is False
            assert not build_timeline(
                [j for j in held if isinstance(j, ReadyJob)],
                [j for j in held if isinstance(j, FutureJob)],
                start_time=0.0,
                preemptable=preemptable,
            ).feasible
            assert timeline.probe(1000 + job_id, 0.5, 100.0) is False
            assert timeline.probe(2000 + job_id, 1e-12, 100.0) is False
            if not has_forced:
                assert (
                    timeline.probe(
                        3000 + job_id, 0.5, 100.0, must_run_first=True
                    )
                    is False
                )
