"""Suffix-dirty refresh regression tests (the timeline_probe perf fix).

The incremental :class:`Timeline` used to rebuild its entire finish-time
chain on every mutation; the suffix-dirty rewrite re-derives only the
chain from the first mutated position, keeping a parallel per-entry miss
array in step.  The hypothesis replay suite pins correctness broadly;
these targeted cases pin the bookkeeping paths directly — stacked
mutations before one refresh, prefix preservation, and miss-count
consistency through insert/remove churn.
"""

from repro.sched.timeline import Timeline, build_timeline
from repro.sched.timeline import ReadyJob


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

    def test_interleaved_insert_remove_probe(self):
        timeline = Timeline(start_time=0.0, preemptable=True)
        jobs: dict[int, tuple[float, float]] = {}
        for job_id in range(12):
            timeline.insert(job_id, 2.0, 10.0 + 3.0 * job_id)
            jobs[job_id] = (2.0, 10.0 + 3.0 * job_id)
        for job_id in (3, 7, 1):
            timeline.remove(job_id)
            del jobs[job_id]
            assert timeline.feasible() == fresh_feasible(jobs)
        # A probe that would miss must not corrupt subsequent queries.
        assert timeline.probe(99, 50.0, 1.0) is False
        assert timeline.feasible() == fresh_feasible(jobs)

    def test_remove_missed_entry_restores_feasibility(self):
        timeline = Timeline(start_time=0.0, preemptable=True)
        timeline.insert(0, 5.0, 100.0)
        timeline.insert(1, 50.0, 10.0)  # hopeless: misses by 40+
        assert timeline.feasible() is False
        timeline.remove(1)
        assert timeline.feasible() is True

    def test_stacked_removes_of_missed_entries(self):
        timeline = Timeline(start_time=0.0, preemptable=True)
        for job_id in range(6):
            timeline.insert(job_id, 10.0, 15.0)  # most of these miss
        assert timeline.feasible() is False
        for job_id in range(5):  # strip back to a single feasible job
            timeline.remove(job_id)
        assert timeline.feasible() is True

    def test_prefix_untouched_by_suffix_mutation(self):
        timeline = Timeline(start_time=0.0, preemptable=True)
        for job_id in range(8):
            timeline.insert(job_id, 1.5, 5.0 * (job_id + 1))
        before = dict(timeline.finish_times())
        # Mutating at the tail must not move any earlier finish time by
        # even one ULP (sequential float addition order is preserved).
        timeline.insert(100, 1.0, 1000.0)
        timeline.remove(100)
        after = dict(timeline.finish_times())
        assert before == after

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
        timeline.remove(1)
        del jobs[1]
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
