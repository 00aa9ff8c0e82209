"""Regression tests for solver-level bugs found by the property suite."""

import warnings

import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.milp.model import Model
from repro.milp.scipy_backend import solve_with_scipy
from repro.sched.timeline import FutureJob, ReadyJob, build_timeline
from tests.milp.test_highs_inputs import HIGHS_OPTIONS


class TestPresolveRegression:
    """The bundled HiGHS presolve returned a sub-optimal 'optimal' on a
    big-M model with near-integral right-hand sides (rhs 13.9999999 with
    integer 13 coefficients).  The solve path therefore keeps presolve
    off."""

    @staticmethod
    def build_model():
        m = Model("presolve-regression")
        # 8 binaries: 3 tasks x candidate resources, as produced by the
        # RM formulation on a degenerate tie case.
        x = [m.add_binary(f"x{i}") for i in range(8)]
        start = [m.add_var(f"s{i}", lb=0.0) for i in range(2)]
        rhs = 13.9999999
        m.add_row([x[0], x[1], x[2]], [1.0, 1.0, 1.0], 1.0, 1.0)
        m.add_row([x[3], x[4], x[5]], [1.0, 1.0, 1.0], 1.0, 1.0)
        m.add_row([x[6], x[7]], [1.0, 1.0], 1.0, 1.0)
        m.add_row([x[0]], [13.0], hi=rhs)
        m.add_row([x[0], x[3]], [1.0, 13.0], hi=rhs)
        m.add_row([start[0], x[0], x[3]], [1.0, -1.0, -1.0], lo=0.0)
        m.add_row([start[0], x[6]], [1.0, 13.0], hi=rhs)
        m.add_row([x[1]], [13.0], hi=rhs)
        m.add_row([x[1], x[4]], [1.0, 13.0], hi=rhs)
        m.add_row([start[1], x[1], x[4]], [1.0, -1.0, -1.0], lo=0.0)
        m.add_row([start[1], x[7]], [1.0, 13.0], hi=rhs)
        m.add_row([x[2]], [13.0], hi=rhs)
        m.add_row([x[2], x[5]], [1.0, 13.0], hi=rhs)
        m.minimize({col: 1.0 for col in x[:7]} | {x[7]: 2.0})
        return m

    def test_presolve_regression(self):
        solution = solve_with_scipy(self.build_model())
        assert solution.optimal
        assert solution.objective == pytest.approx(3.0, abs=1e-6)

    def test_presolve_on_reproduces_the_bug_or_is_fixed(self):
        """With presolve forced on, the bundled HiGHS may return 4.0; if
        a future scipy upgrade fixes it, this records the improvement.
        The solve path has no presolve switch, so this hands the model's
        arrays to HiGHS itself, with the solve path's other options."""
        arrays = self.build_model().arrays()
        matrix = csr_matrix(arrays.a, shape=(len(arrays.lo), len(arrays.c)))
        with warnings.catch_warnings():
            # scipy warns that the HiGHS-only keys pass through verbatim.
            warnings.simplefilter("ignore")
            result = milp(
                arrays.c,
                constraints=[LinearConstraint(matrix, arrays.lo, arrays.hi)],
                bounds=Bounds(arrays.lb, arrays.ub),
                integrality=arrays.integrality,
                options={**HIGHS_OPTIONS, "presolve": True},
            )
        assert result.fun in (
            pytest.approx(3.0, abs=1e-6),
            pytest.approx(4.0, abs=1e-6),
        )


class TestBoundaryNonMonotonicity:
    """Under non-preemptive EDF with a future arrival, adding a ready job
    can create an earlier completion boundary at which the arrived future
    job wins the queue — so per-resource feasibility is NOT monotone in
    the assigned set.  The exact search must not prune such resources
    mid-way (repro.core.exact)."""

    def test_adding_ready_job_improves_future_start(self):
        long_job = ReadyJob(0, 10.0, 100.0)
        future = FutureJob(9, 0.5, 2.0, 4.0)  # deadline 4
        without = build_timeline(
            [long_job], [future], start_time=0.0, preemptable=False
        )
        assert not without.feasible  # waits until 10, misses 4

        short_job = ReadyJob(1, 1.0, 5.0)  # earlier deadline: runs first
        with_extra = build_timeline(
            [long_job, short_job], [future], start_time=0.0, preemptable=False
        )
        # boundary at t=1: the future job (arrived at 0.5, deadline 4)
        # outranks the long job and finishes at 3 <= 4
        assert with_extra.feasible
        assert with_extra.start_time(9) == 1.0

    def test_exact_search_handles_the_boundary_case(self):
        """End-to-end regression: the optimal mapping needs the boundary
        effect; pruning-based search used to miss it."""

        from repro.core.context import (
            PREDICTED_JOB_ID,
            PlannedTask,
            RMContext,
        )
        from repro.core.exact import ExactResourceManager
        from repro.core.milp_rm import MilpResourceManager
        from repro.model.platform import Platform
        from repro.model.task import TaskType

        platform = Platform.cpu_gpu(2, 1)

        def mk(wcet, energy):
            return TaskType(
                type_id=0, wcet=wcet, energy=energy,
                migration_time=0.0, migration_energy=0.0,
            )

        tasks = (
            PlannedTask(job_id=0, task=mk((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
                        absolute_deadline=2.0),
            PlannedTask(job_id=1, task=mk((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
                        absolute_deadline=2.0),
            PlannedTask(
                job_id=PREDICTED_JOB_ID,
                task=mk((1.0, 1.0, 3.0), (1.0, 2.0, 1.0)),
                absolute_deadline=2.0,
                is_predicted=True,
                arrival=0.0,
            ),
        )
        context = RMContext(time=0.0, platform=platform, tasks=tasks)
        exact = ExactResourceManager().solve(context)
        milp = MilpResourceManager().solve(context)
        assert exact.feasible and milp.feasible
        assert exact.energy == pytest.approx(3.0)
        assert milp.energy == pytest.approx(3.0)


class TestArrivalAtFeasibilityTolerance:
    """A predicted arrival of exactly 1e-9 — the timeline's EPS and the
    HiGHS MIP feasibility tolerance at once — put that value on the
    right-hand side of the arrival constraints, and HiGHS stopped with
    a solve error the RM read as "infeasible".  An arrival within EPS of
    the activation counts as already arrived, so the MILP now plans it
    from the activation time, as the timeline does."""

    @staticmethod
    def build_context(arrival):
        import math

        from repro.core.context import (
            PREDICTED_JOB_ID,
            PlannedTask,
            RMContext,
        )
        from repro.model.platform import Platform
        from repro.model.task import TaskType

        def mk(wcet, energy):
            return TaskType(
                type_id=0, wcet=wcet, energy=energy,
                migration_time=0.0, migration_energy=0.0,
            )

        tasks = (
            PlannedTask(
                job_id=0,
                task=mk((math.inf, math.inf, 1.0), (math.inf, math.inf, 1.0)),
                absolute_deadline=28.0,
            ),
            PlannedTask(
                job_id=PREDICTED_JOB_ID,
                task=mk((1.0, 1.0, 20.0), (1.0, 1.0, 1.0)),
                absolute_deadline=arrival + 27.0,
                is_predicted=True,
                arrival=arrival,
            ),
        )
        return RMContext(
            time=0.0, platform=Platform.cpu_gpu(2, 1), tasks=tasks
        )

    @pytest.mark.parametrize("arrival", [9.9e-10, 1e-9, 1.01e-9])
    def test_milp_agrees_with_exact_search(self, arrival):
        from repro.core.base import mapping_feasible
        from repro.core.context import PREDICTED_JOB_ID
        from repro.core.exact import ExactResourceManager
        from repro.core.milp_rm import MilpResourceManager
        from tests.milp.reference_bnb import solving_with_bnb

        context = self.build_context(arrival)
        assert mapping_feasible(context, {0: 2, PREDICTED_JOB_ID: 0})
        exact = ExactResourceManager().solve(context)
        milp = MilpResourceManager().solve(context)
        with solving_with_bnb():
            bnb = MilpResourceManager().solve(context)
        assert exact.feasible and milp.feasible and bnb.feasible
        assert exact.energy == pytest.approx(2.0)
        assert milp.energy == pytest.approx(2.0)
        assert bnb.energy == pytest.approx(2.0)


class TestUnprovenSolveIsNotAReject:
    """A HiGHS error (status 1 or 4) or an unbounded model proves
    nothing about the activation, so the MILP RM used to reject the
    arrival on a status that does not say the context is infeasible.
    Only INFEASIBLE rejects; any other non-optimal status raises, and
    the watchdog turns that into its fallback's decision."""

    @staticmethod
    def context():
        from repro.core.context import PlannedTask, RMContext
        from repro.model.platform import Platform
        from tests.conftest import make_task

        task = PlannedTask(job_id=0, task=make_task(), absolute_deadline=30.0)
        return RMContext(
            time=7.5, platform=Platform.cpu_gpu(2, 1), tasks=(task,)
        )

    @staticmethod
    def unproven(monkeypatch, status):
        import math

        from repro.milp import scipy_backend
        from repro.milp.model import Solution

        def solve(model):
            return Solution(status, math.nan, [])

        monkeypatch.setattr(scipy_backend, "solve_with_scipy", solve)

    @pytest.mark.parametrize("status", ["ERROR", "UNBOUNDED"])
    def test_milp_rm_raises(self, monkeypatch, status):
        from repro.core.milp_rm import MilpResourceManager, MilpValidationError
        from repro.milp.model import SolveStatus

        self.unproven(monkeypatch, SolveStatus[status])
        with pytest.raises(MilpValidationError, match=f"{status}.*t=7.5"):
            MilpResourceManager().solve(self.context())

    @pytest.mark.parametrize("status", ["ERROR", "UNBOUNDED"])
    def test_watchdog_falls_back(self, monkeypatch, status):
        from repro.core.heuristic import HeuristicResourceManager
        from repro.core.milp_rm import MilpResourceManager
        from repro.faults.watchdog import SolverWatchdog
        from repro.milp.model import SolveStatus

        context = self.context()
        expected = HeuristicResourceManager().solve(context)
        assert expected.feasible
        self.unproven(monkeypatch, SolveStatus[status])
        watchdog = SolverWatchdog(
            MilpResourceManager(), HeuristicResourceManager()
        )
        assert watchdog.solve(context) == expected
        events = watchdog.drain_events()
        assert [kind for kind, _ in events] == ["solver-exception"]
        assert "MilpValidationError" in events[0][1]
