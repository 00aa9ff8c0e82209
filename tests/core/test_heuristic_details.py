"""Detailed behavioural tests of Algorithm 1's mechanics."""

import math

import pytest

from repro.core.base import mapping_feasible
from repro.core.context import PREDICTED_JOB_ID, PlannedTask, RMContext
from repro.core.heuristic import HeuristicResourceManager
from repro.model.platform import Platform
from tests.conftest import make_task


def ctx(tasks, time=0.0, platform=None):
    return RMContext(
        time=time,
        platform=platform or Platform.cpu_gpu(2, 1),
        tasks=tuple(tasks),
    )


def planned(job_id=0, deadline=30.0, **kwargs):
    return PlannedTask(
        job_id=job_id,
        task=kwargs.pop("task", make_task()),
        absolute_deadline=deadline,
        **kwargs,
    )


class TestRegretOrdering:
    def test_single_candidate_task_placed_first(self):
        """A task with exactly one capacity-feasible resource has regret
        +inf (line 14) and must be placed before flexible tasks."""
        # GPU-only tight task: wcet fits only the GPU
        urgent = planned(
            5,
            deadline=5.0,
            task=make_task(
                wcet=(math.inf, math.inf, 4.0),
                energy=(math.inf, math.inf, 3.0),
            ),
        )
        flexible = planned(1, deadline=40.0)
        decision = HeuristicResourceManager().solve(ctx([flexible, urgent]))
        assert decision.feasible
        assert decision.mapping[5] == 2
        # flexible got pushed off the GPU even though the GPU is its
        # energy-minimal resource
        assert decision.mapping[1] in (0, 1, 2)
        assert mapping_feasible(ctx([flexible, urgent]), decision.mapping)

    def test_deadline_penalty_steers_away(self):
        """f gets +M where cpm > t_left: the task must land on a resource
        it can actually finish on, even if energy prefers another."""
        # GPU cheapest but too slow here: gpu wcet 8 > deadline 6
        task = make_task(wcet=(5.0, 5.0, 8.0), energy=(5.0, 5.0, 0.5))
        decision = HeuristicResourceManager().solve(
            ctx([planned(0, deadline=6.0, task=task)])
        )
        assert decision.feasible
        assert decision.mapping[0] in (0, 1)

    def test_deterministic_output(self, tiny_trace, platform):
        from repro.sim.simulator import simulate

        a = simulate(tiny_trace, platform, HeuristicResourceManager())
        b = simulate(tiny_trace, platform, HeuristicResourceManager())
        assert a.rejected == b.rejected


class TestCapacityFilter:
    def test_window_capacity_excludes_overfull_resource(self):
        """K-bar capacity bookkeeping (lines 10, 27): once a resource's
        window capacity is consumed, further tasks cannot pick it."""
        # window = 12; each task takes 10 on cpu0/cpu1, 12 on gpu... use
        # three tasks of wcet 10 with deadline 12: each resource holds one.
        task = make_task(wcet=(10.0, 10.0, 10.0), energy=(1.0, 2.0, 3.0))
        tasks = [planned(i, deadline=12.0, task=task) for i in range(3)]
        decision = HeuristicResourceManager().solve(ctx(tasks))
        assert decision.feasible
        assert sorted(decision.mapping.values()) == [0, 1, 2]

    def test_infeasible_when_capacity_exhausted(self):
        task = make_task(wcet=(10.0, 10.0, 10.0), energy=(1.0, 2.0, 3.0))
        tasks = [planned(i, deadline=12.0, task=task) for i in range(4)]
        decision = HeuristicResourceManager().solve(ctx(tasks))
        assert not decision.feasible


class TestRemapExistingOption:
    def test_pinned_tasks_keep_resources(self):
        moved = planned(0, current_resource=1, started=True)
        sticky = HeuristicResourceManager(remap_existing=False)
        decision = sticky.solve(ctx([moved]))
        assert decision.feasible
        assert decision.mapping[0] == 1  # stays despite GPU being cheaper

    def test_default_remaps(self):
        moved = planned(0, current_resource=1, started=False)
        decision = HeuristicResourceManager().solve(ctx([moved]))
        assert decision.mapping[0] == 2  # free remap to the cheapest

    def test_sticky_infeasible_when_pin_conflicts(self):
        # pinned task occupies the GPU beyond the new task's slack, and
        # the new task fits nowhere else
        pinned = planned(
            0,
            deadline=30.0,
            task=make_task(wcet=(20.0, 20.0, 10.0), energy=(9.0, 9.0, 1.0)),
            current_resource=2,
            started=True,
            running_non_preemptable=True,
        )
        gpu_only = planned(
            1,
            deadline=6.0,
            task=make_task(
                wcet=(math.inf, math.inf, 4.0),
                energy=(math.inf, math.inf, 1.0),
            ),
        )
        sticky = HeuristicResourceManager(remap_existing=False)
        assert not sticky.solve(ctx([pinned, gpu_only])).feasible
        # the default manager aborts the GPU task and admits both
        assert HeuristicResourceManager().solve(
            ctx([pinned, gpu_only])
        ).feasible

    def test_new_and_predicted_still_placed(self):
        existing = planned(0, current_resource=0, started=True)
        new_task = planned(1, deadline=25.0)
        predicted = PlannedTask(
            job_id=PREDICTED_JOB_ID,
            task=make_task(),
            absolute_deadline=40.0,
            is_predicted=True,
            arrival=5.0,
        )
        sticky = HeuristicResourceManager(remap_existing=False)
        decision = sticky.solve(ctx([existing, new_task, predicted]))
        assert decision.feasible
        assert decision.mapping[0] == 0
        assert 1 in decision.mapping and PREDICTED_JOB_ID in decision.mapping


class TestParameters:
    def test_invalid_penalty(self):
        with pytest.raises(ValueError):
            HeuristicResourceManager(deadline_penalty=0.0)

    @pytest.mark.parametrize("penalty", [math.inf, math.nan])
    def test_non_finite_penalty_rejected(self, penalty):
        """An infinite ``M`` turns a task that misses its deadline
        everywhere into regret ``inf - inf = nan``, which no comparison
        selects; a NaN ``M`` poisons every row.  Both are refused up
        front instead of failing inside ``solve``."""
        with pytest.raises(ValueError, match="finite"):
            HeuristicResourceManager(deadline_penalty=penalty)
        # The activation that crashed with M = inf: A meets its deadline
        # nowhere, B is easy.  With a finite M it is simply infeasible.
        late = planned(
            0, deadline=3.0, task=make_task(wcet=(5.0, 5.0, 5.0))
        )
        easy = planned(1, deadline=100.0)
        decision = HeuristicResourceManager().solve(ctx([late, easy]))
        assert not decision.feasible

    def test_name(self):
        assert HeuristicResourceManager().name == "heuristic"
        assert "heuristic" in repr(HeuristicResourceManager())
