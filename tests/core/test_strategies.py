"""Behavioural tests of the three mapping strategies on hand-built
activations, plus the admission controller."""

import math

import pytest

from repro.core.admission import AdmissionController
from repro.core.base import mapping_energy, mapping_feasible
from repro.core.context import PREDICTED_JOB_ID, PlannedTask, RMContext
from repro.core.exact import ExactResourceManager
from repro.core.heuristic import HeuristicResourceManager
from repro.core.milp_rm import MilpResourceManager
from repro.model.platform import Platform
from tests.conftest import make_task

ALL_STRATEGIES = [
    HeuristicResourceManager,
    MilpResourceManager,
    ExactResourceManager,
]
EXACT_STRATEGIES = [MilpResourceManager, ExactResourceManager]


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


class TestSingleTask:
    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_picks_cheapest_feasible_resource(self, strategy_cls):
        decision = strategy_cls().solve(ctx([planned()]))
        assert decision.feasible
        # GPU (resource 2) has energy 1.0 — the cheapest
        assert decision.mapping[0] == 2
        assert decision.energy == pytest.approx(1.0)

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_infeasible_when_no_resource_fits(self, strategy_cls):
        decision = strategy_cls().solve(ctx([planned(deadline=3.0)]))
        assert not decision.feasible
        assert decision.mapping == {}
        assert decision.energy == math.inf

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_empty_context(self, strategy_cls):
        decision = strategy_cls().solve(ctx([]))
        assert decision.feasible
        assert decision.energy == 0.0

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_deadline_forces_expensive_resource(self, strategy_cls):
        # GPU taken by a GPU-only earlier-deadline job; the new task's
        # deadline still allows a CPU
        gpu_task = planned(
            0,
            deadline=5.0,
            task=make_task(
                wcet=(math.inf, math.inf, 4.0),
                energy=(math.inf, math.inf, 1.0),
            ),
        )
        other = planned(1, deadline=12.0)
        decision = strategy_cls().solve(ctx([gpu_task, other]))
        assert decision.feasible
        assert decision.mapping[0] == 2
        # other on GPU would finish at 4 + 4 = 8 <= 12: still feasible!
        assert mapping_feasible(ctx([gpu_task, other]), decision.mapping)


class TestEnergyOptimality:
    @pytest.mark.parametrize("strategy_cls", EXACT_STRATEGIES)
    def test_exact_strategies_prefer_global_optimum(self, strategy_cls):
        # Two tasks, one GPU: energy says both want the GPU, but deadlines
        # allow only one there (4 + 4 = 8 > 7); the optimum puts the
        # *bigger energy saver* on the GPU.
        saver = planned(
            0,
            deadline=7.0,
            task=make_task(wcet=(6.0, 6.0, 4.0), energy=(9.0, 9.0, 1.0)),
        )
        modest = planned(
            1,
            deadline=7.0,
            task=make_task(wcet=(6.0, 6.0, 4.0), energy=(4.0, 4.0, 3.0)),
        )
        decision = strategy_cls().solve(ctx([saver, modest]))
        assert decision.feasible
        assert decision.mapping[0] == 2  # saver gets the GPU
        assert decision.mapping[1] in (0, 1)
        assert decision.energy == pytest.approx(1.0 + 4.0)

    def test_heuristic_feasible_but_maybe_suboptimal(self):
        saver = planned(
            0,
            deadline=7.0,
            task=make_task(wcet=(6.0, 6.0, 4.0), energy=(9.0, 9.0, 1.0)),
        )
        modest = planned(
            1,
            deadline=7.0,
            task=make_task(wcet=(6.0, 6.0, 4.0), energy=(4.0, 4.0, 3.0)),
        )
        context = ctx([saver, modest])
        decision = HeuristicResourceManager().solve(context)
        assert decision.feasible
        assert mapping_feasible(context, decision.mapping)
        assert decision.energy >= 5.0 - 1e-9


class TestMigrationAwareness:
    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_started_task_stays_when_migration_too_expensive(
        self, strategy_cls
    ):
        # task half-done on cpu0; gpu would save energy but em makes it
        # a wash, and cm busts nothing — use em >> savings
        task = make_task(
            wcet=(10.0, 10.0, 8.0),
            energy=(5.0, 5.0, 4.0),
            migration_energy=3.0,
            migration_time=0.5,
        )
        running = planned(
            0,
            deadline=30.0,
            task=task,
            current_resource=0,
            started=True,
            remaining_fraction=0.5,
        )
        decision = strategy_cls().solve(ctx([running]))
        assert decision.feasible
        # staying: 2.5; moving to gpu: 2.0 + 3.0 em = 5.0
        assert decision.mapping[0] == 0
        assert decision.energy == pytest.approx(2.5)

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_migration_when_savings_dominate(self, strategy_cls):
        task = make_task(
            wcet=(10.0, 10.0, 8.0),
            energy=(9.0, 9.0, 1.0),
            migration_energy=0.1,
            migration_time=0.1,
        )
        running = planned(
            0,
            deadline=30.0,
            task=task,
            current_resource=0,
            started=True,
            remaining_fraction=0.5,
        )
        decision = strategy_cls().solve(ctx([running]))
        # moving: 0.5 + 0.1 = 0.6 < staying 4.5
        assert decision.mapping[0] == 2
        assert decision.energy == pytest.approx(0.6)


class TestGpuSemantics:
    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_running_gpu_task_blocks_til_completion(self, strategy_cls):
        # GPU running a long task; GPU-only arrival with a tight deadline
        # cannot fit behind it and the GPU task cannot restart anywhere
        # in time either -> infeasible.
        long_gpu = planned(
            0,
            deadline=11.5,
            task=make_task(wcet=(12.0, 12.0, 10.0), energy=(6.0, 6.0, 2.0)),
            current_resource=2,
            started=True,
            remaining_fraction=0.8,  # 8 units left on the GPU
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
        decision = strategy_cls().solve(ctx([long_gpu, gpu_only]))
        assert not decision.feasible

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_abort_restart_rescues_gpu_only_arrival(self, strategy_cls):
        # same as above but the GPU task has slack to restart on a CPU
        long_gpu = planned(
            0,
            deadline=25.0,
            task=make_task(wcet=(12.0, 12.0, 10.0), energy=(6.0, 6.0, 2.0)),
            current_resource=2,
            started=True,
            remaining_fraction=0.8,
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
        context = ctx([long_gpu, gpu_only])
        decision = strategy_cls().solve(context)
        assert decision.feasible
        assert decision.mapping[1] == 2
        assert decision.mapping[0] in (0, 1)  # aborted & restarted on a CPU
        assert mapping_feasible(context, decision.mapping)


class TestPredictedTask:
    def predicted(self, arrival, deadline, task=None):
        return PlannedTask(
            job_id=PREDICTED_JOB_ID,
            task=task
            or make_task(
                wcet=(math.inf, math.inf, 4.0),
                energy=(math.inf, math.inf, 1.0),
            ),
            absolute_deadline=arrival + deadline,
            is_predicted=True,
            arrival=arrival,
        )

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_reservation_moves_current_task_off_gpu(self, strategy_cls):
        # new task could run anywhere; predicted GPU-only task arrives
        # soon and needs the GPU immediately -> new task must avoid GPU
        new_task = planned(0, deadline=30.0)
        pred = self.predicted(arrival=2.0, deadline=5.0)
        context = ctx([new_task, pred])
        decision = strategy_cls().solve(context)
        assert decision.feasible
        assert decision.mapping[0] in (0, 1)
        assert decision.mapping[PREDICTED_JOB_ID] == 2

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_no_reservation_needed_when_gpu_fast_enough(self, strategy_cls):
        # predicted task arrives late enough that the new task finishes
        # on the GPU first -> everyone can have the GPU
        new_task = planned(0, deadline=30.0)
        pred = self.predicted(arrival=6.0, deadline=5.0)
        context = ctx([new_task, pred])
        decision = strategy_cls().solve(context)
        assert decision.feasible
        assert decision.mapping[0] == 2  # wcet 4 <= arrival 6
        assert mapping_feasible(context, decision.mapping)

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_infeasible_with_prediction(self, strategy_cls):
        # GPU-only new task and GPU-only predicted task colliding
        new_task = planned(
            0,
            deadline=5.0,
            task=make_task(
                wcet=(math.inf, math.inf, 4.0),
                energy=(math.inf, math.inf, 1.0),
            ),
        )
        pred = self.predicted(arrival=1.0, deadline=4.5)
        decision = strategy_cls().solve(ctx([new_task, pred]))
        assert not decision.feasible

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_predicted_preempts_on_cpu(self, strategy_cls):
        # single CPU platform: predicted earlier-deadline task preempts
        # the running one (eqs. (8)-(14))
        cpu = Platform.cpu_gpu(1, 0)
        task = make_task(
            wcet=(10.0,), energy=(5.0,), migration_time=0.0,
            migration_energy=0.0,
        )
        current = PlannedTask(
            job_id=0, task=task, absolute_deadline=20.0
        )
        pred = PlannedTask(
            job_id=PREDICTED_JOB_ID,
            task=make_task(
                wcet=(3.0,), energy=(2.0,), migration_time=0.0,
                migration_energy=0.0,
            ),
            absolute_deadline=4.0 + 5.0,
            is_predicted=True,
            arrival=4.0,
        )
        context = ctx([current, pred], platform=cpu)
        decision = strategy_cls().solve(context)
        # current runs [0,4] and [7,13] <= 20; predicted [4,7] <= 9
        assert decision.feasible

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_predicted_cannot_preempt_on_gpu(self, strategy_cls):
        gpu = Platform(
            [__import__("repro.model.platform", fromlist=["Resource"]).Resource(
                0, "gpu0", "gpu", preemptable=False
            )]
        )
        task = make_task(
            wcet=(10.0,), energy=(5.0,), migration_time=0.0,
            migration_energy=0.0,
        )
        current = PlannedTask(job_id=0, task=task, absolute_deadline=20.0)
        pred = PlannedTask(
            job_id=PREDICTED_JOB_ID,
            task=make_task(
                wcet=(3.0,), energy=(2.0,), migration_time=0.0,
                migration_energy=0.0,
            ),
            absolute_deadline=4.0 + 5.0,  # needs to finish by 9
            is_predicted=True,
            arrival=4.0,
        )
        context = ctx([current, pred], platform=gpu)
        decision = strategy_cls().solve(context)
        # non-preemptive: predicted waits until 10, misses 9
        assert not decision.feasible


class TestAdmissionController:
    def test_admits_with_prediction(self):
        controller = AdmissionController(HeuristicResourceManager())
        new_task = planned(0, deadline=30.0)
        pred = PlannedTask(
            job_id=PREDICTED_JOB_ID,
            task=make_task(),
            absolute_deadline=40.0,
            is_predicted=True,
            arrival=5.0,
        )
        outcome = controller.decide(ctx([new_task, pred]))
        assert outcome.admitted and outcome.used_prediction
        assert outcome.solver_calls == 1

    def test_falls_back_without_prediction(self):
        controller = AdmissionController(HeuristicResourceManager())
        # GPU-only new task feasible alone; predicted GPU-only task makes
        # the joint problem infeasible
        new_task = planned(
            0,
            deadline=5.0,
            task=make_task(
                wcet=(math.inf, math.inf, 4.0),
                energy=(math.inf, math.inf, 1.0),
            ),
        )
        pred = PlannedTask(
            job_id=PREDICTED_JOB_ID,
            task=make_task(
                wcet=(math.inf, math.inf, 4.0),
                energy=(math.inf, math.inf, 1.0),
            ),
            absolute_deadline=1.0 + 4.5,
            is_predicted=True,
            arrival=1.0,
        )
        outcome = controller.decide(ctx([new_task, pred]))
        assert outcome.admitted
        assert not outcome.used_prediction
        assert outcome.solver_calls == 2

    def test_rejects_when_both_fail(self):
        controller = AdmissionController(HeuristicResourceManager())
        outcome = controller.decide(ctx([planned(0, deadline=2.0)]))
        assert not outcome.admitted
        assert outcome.decision is None

    def test_no_prediction_single_call(self):
        controller = AdmissionController(HeuristicResourceManager())
        outcome = controller.decide(ctx([planned(0)]))
        assert outcome.admitted
        assert outcome.solver_calls == 1


class TestDecisionValidity:
    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_feasible_decisions_pass_ground_truth(self, strategy_cls):
        tasks = [
            planned(0, deadline=25.0),
            planned(1, deadline=14.0),
            planned(
                2,
                deadline=9.0,
                task=make_task(
                    wcet=(math.inf, math.inf, 4.0),
                    energy=(math.inf, math.inf, 1.0),
                ),
            ),
        ]
        context = ctx(tasks)
        decision = strategy_cls().solve(context)
        if decision.feasible:
            assert mapping_feasible(context, decision.mapping)
            assert decision.energy == pytest.approx(
                mapping_energy(context, decision.mapping)
            )


class TestPhantomEnergyOption:
    def test_feasibility_only_reservation(self):
        """The MILP honours the reservation of a GPU-only phantom."""
        new_task = planned(0, deadline=30.0)
        pred = PlannedTask(
            job_id=PREDICTED_JOB_ID,
            task=make_task(
                wcet=(math.inf, math.inf, 4.0),
                energy=(math.inf, math.inf, 1.0),
            ),
            absolute_deadline=2.0 + 5.0,
            is_predicted=True,
            arrival=2.0,
        )
        context = ctx([new_task, pred])
        decision = MilpResourceManager().solve(context)
        assert decision.feasible
        assert decision.mapping[0] in (0, 1)  # the GPU stays reserved
        assert mapping_feasible(context, decision.mapping)

    def test_objective_differs_when_phantom_competes(self):
        """The phantom's energy is part of the paper's objective, so the
        MILP steers the predicted task to its cheapest resource (the
        GPU), and the mapping stays ground-truth feasible."""
        real = planned(0, deadline=40.0)
        pred = PlannedTask(
            job_id=PREDICTED_JOB_ID,
            task=make_task(),
            absolute_deadline=60.0,
            is_predicted=True,
            arrival=10.0,
        )
        context = ctx([real, pred])
        with_phantom = MilpResourceManager().solve(context)
        assert with_phantom.feasible
        assert with_phantom.mapping[PREDICTED_JOB_ID] == 2
        assert mapping_feasible(context, with_phantom.mapping)
