"""Tests for PlannedTask / RMContext (the Sec. 4.1 quantities)."""

import math

import pytest

from repro.core.context import PREDICTED_JOB_ID, PlannedTask, RMContext
from repro.model.platform import Platform
from tests.conftest import make_task


def planned(job_id=0, deadline=20.0, **kwargs):
    return PlannedTask(
        job_id=job_id,
        task=kwargs.pop("task", make_task()),
        absolute_deadline=deadline,
        **kwargs,
    )


class TestPlannedTaskValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            planned(remaining_fraction=0.0)
        with pytest.raises(ValueError):
            planned(remaining_fraction=1.1)

    def test_running_non_preemptable_needs_resource(self):
        with pytest.raises(ValueError):
            planned(running_non_preemptable=True)

    def test_predicted_needs_arrival(self):
        with pytest.raises(ValueError):
            planned(is_predicted=True)

    def test_negative_migration_debt_rejected(self):
        with pytest.raises(ValueError):
            planned(pending_migration_time=-1.0)


def context(*tasks, time=0.0, charge_unstarted=False, down=()):
    return RMContext(
        time=time,
        platform=Platform.cpu_gpu(2, 1),
        tasks=tasks,
        charge_unstarted_migration=charge_unstarted,
        down_resources=frozenset(down),
    )


def both_policies(t):
    """The context under the default and the charging migration policy."""
    return context(t), context(t, charge_unstarted=True)


class TestRemainingQuantities:
    def test_fresh_task_full_work(self):
        t = planned()
        ctx = context(t)
        assert ctx.cpm(t, 0) == 10.0
        assert ctx.energy(t, 2) == 1.0

    def test_partial_execution_scales_proportionally(self):
        # Sec. 4.1: cp[j,k] = c[j,k] * (cp[j,i] / c[j,i]); no migration
        # overhead here, so cpm is cp
        t = planned(
            task=make_task(migration_time=0.0, migration_energy=0.0),
            remaining_fraction=0.5,
            current_resource=0,
            started=True,
        )
        ctx = context(t)
        assert ctx.cpm(t, 0) == 5.0
        assert ctx.cpm(t, 1) == 6.0
        assert ctx.energy(t, 2) == 0.5

    def test_non_executable_resource_infinite(self):
        task = make_task(wcet=(10.0, math.inf, 4.0), energy=(5.0, math.inf, 1.0))
        t = planned(task=task)
        ctx = context(t)
        assert ctx.cpm(t, 1) == math.inf
        assert ctx.energy(t, 1) == math.inf
        assert ctx.rows(t)[2] == [0, 2]

    def test_down_resource_infinite(self):
        t = planned(current_resource=0, started=True, remaining_fraction=0.5)
        ctx = context(t, down={0, 2})
        row_c, row_e, executable = ctx.rows(t)
        assert row_c[0] == row_c[2] == math.inf
        assert row_e[0] == row_e[2] == math.inf
        assert executable == [1]
        assert ctx.cpm(t, 1) == pytest.approx(0.5 * 12.0 + 1.0)
        assert ctx.candidate_resources(t) == (1,)

    def test_abort_restart_resets_work(self):
        # running on the GPU (resource 2), moving anywhere restarts
        t = planned(
            remaining_fraction=0.3,
            current_resource=2,
            started=True,
            running_non_preemptable=True,
        )
        ctx = context(t)
        assert ctx.cpm(t, 2) == pytest.approx(0.3 * 4.0)  # continue
        assert ctx.cpm(t, 0) == 10.0  # full restart
        assert ctx.energy(t, 0) == 5.0


class TestMigrationAccounting:
    def test_no_migration_when_staying(self):
        t = planned(current_resource=1, started=True)
        for ctx in both_policies(t):
            assert ctx.cpm(t, 1) == 12.0
            assert ctx.energy(t, 1) == 6.0

    def test_no_migration_for_unmapped(self):
        t = planned()
        for ctx in both_policies(t):
            assert ctx.cpm(t, 0) == 10.0
            assert ctx.energy(t, 0) == 5.0

    def test_started_task_pays_cm_and_em(self):
        t = planned(current_resource=0, started=True, remaining_fraction=0.5)
        # cm = 1.0, em = 0.5 (scalar broadcast in make_task)
        ctx = context(t)
        assert ctx.cpm(t, 1) == pytest.approx(0.5 * 12.0 + 1.0)
        assert ctx.energy(t, 1) == pytest.approx(0.5 * 6.0 + 0.5)

    def test_unstarted_task_free_by_default(self):
        t = planned(current_resource=0, started=False)
        loose, strict = both_policies(t)
        assert (loose.cpm(t, 1), loose.energy(t, 1)) == (12.0, 6.0)
        assert (strict.cpm(t, 1), strict.energy(t, 1)) == (13.0, 6.5)

    def test_abort_restart_no_migration_charge(self):
        t = planned(
            current_resource=2,
            started=True,
            running_non_preemptable=True,
            remaining_fraction=0.5,
        )
        for ctx in both_policies(t):
            assert ctx.cpm(t, 0) == 10.0  # full WCET, no cm
            assert ctx.energy(t, 0) == 5.0  # full energy, no em

    def test_pending_debt_included_when_staying(self):
        t = planned(
            current_resource=1, started=True, pending_migration_time=0.7
        )
        ctx = context(t)
        assert ctx.cpm(t, 1) == pytest.approx(12.7)
        # moving again replaces the debt with the new cm
        assert ctx.cpm(t, 0) == pytest.approx(10.0 + 1.0)


class TestRMContext:
    def make_context(self, tasks, time=0.0):
        return RMContext(
            time=time, platform=Platform.cpu_gpu(2, 1), tasks=tuple(tasks)
        )

    def test_window_is_latest_t_left(self):
        ctx = self.make_context(
            [planned(0, deadline=20.0), planned(1, deadline=50.0)], time=5.0
        )
        assert ctx.window == 45.0
        assert ctx.t_left(ctx.tasks[0]) == 15.0

    def test_empty_window(self):
        assert self.make_context([]).window == 0.0

    def test_predicted_accessors(self):
        p = planned(
            PREDICTED_JOB_ID, deadline=30.0, is_predicted=True, arrival=8.0
        )
        ctx = self.make_context([planned(0), p])
        assert ctx.predicted is p
        assert ctx.real_tasks == (ctx.tasks[0],)
        stripped = ctx.without_prediction()
        assert stripped.predicted is None
        assert len(stripped.tasks) == 1

    def test_multiple_predicted_supported(self):
        """Lookahead horizons: several predicted tasks, ordered by
        arrival; `predicted` returns the earliest."""
        p1 = planned(11, is_predicted=True, arrival=5.0)
        p2 = planned(10, is_predicted=True, arrival=1.0)
        ctx = self.make_context([planned(0), p1, p2])
        assert ctx.predicted_tasks == (p2, p1)
        assert ctx.predicted is p2
        assert ctx.without_prediction().predicted_tasks == ()

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            self.make_context([planned(0), planned(0)])

    def test_resource_count_mismatch_rejected(self):
        bad = PlannedTask(
            job_id=0,
            task=make_task(wcet=(1.0,), energy=(1.0,), migration_time=0.0,
                           migration_energy=0.0),
            absolute_deadline=10.0,
        )
        with pytest.raises(ValueError, match="resources"):
            self.make_context([bad])

    def test_candidate_resources_constraint_2(self):
        # deadline budget 8: only resources where cpm <= 8
        t = planned(0, deadline=8.0)
        ctx = self.make_context([t])
        assert ctx.candidate_resources(t) == (2,)  # wcet (10, 12, 4)

    def test_candidate_resources_predicted_measured_from_arrival(self):
        p = planned(
            PREDICTED_JOB_ID,
            deadline=14.0,  # absolute
            is_predicted=True,
            arrival=9.0,
        )
        ctx = self.make_context([p], time=0.0)
        # budget from arrival = 5: only the GPU (wcet 4) fits
        assert ctx.candidate_resources(p) == (2,)

    def test_cpm_uses_policy(self):
        t = planned(0, current_resource=0, started=False)
        loose = self.make_context([t])
        strict = RMContext(
            time=0.0,
            platform=Platform.cpu_gpu(2, 1),
            tasks=(t,),
            charge_unstarted_migration=True,
        )
        assert loose.cpm(t, 1) == 12.0
        assert strict.cpm(t, 1) == 13.0

    def test_ready_at(self):
        p = planned(PREDICTED_JOB_ID, is_predicted=True, arrival=8.0)
        real = planned(0)
        assert context(real, p, time=5.0).ready_at(p) == 8.0  # not yet
        assert context(real, p, time=9.0).ready_at(p) == 9.0  # arrived
        assert context(real, p, time=5.0).ready_at(real) == 5.0

    def test_runs_first(self):
        # Platform.cpu_gpu(2, 1): resources 0, 1 preemptable, 2 is not
        on_gpu = planned(
            0, current_resource=2, started=True, running_non_preemptable=True
        )
        ctx = context(on_gpu)
        assert [ctx.runs_first(on_gpu, i) for i in range(3)] == [
            False, False, True,
        ]
        # running on a preemptable resource, or merely queued on the GPU
        on_cpu = planned(
            1, current_resource=0, started=True, running_non_preemptable=True
        )
        queued = planned(2, current_resource=2, started=True)
        ctx = context(on_cpu, queued)
        assert not any(
            ctx.runs_first(t, i) for t in (on_cpu, queued) for i in range(3)
        )

    def test_rows_built_once_per_context(self):
        t = planned(current_resource=0, started=True)
        ctx = context(t)
        assert ctx.rows(t) is ctx.rows(t)
        assert context(t).rows(t) == ctx.rows(t)
        # another task under the same job id gets its own rows
        other = planned(current_resource=1, started=True)
        assert (ctx.cpm(other, 0), ctx.cpm(t, 0)) == (11.0, 10.0)
