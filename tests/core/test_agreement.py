"""Cross-validation of the three strategies on random activations.

The MILP formulation (eqs. (1)-(14) with big-M encodings) and the
branch-and-bound search over mappings take entirely different routes to
the same optimisation problem; their agreement on random contexts is the
strongest correctness evidence in the suite.  The heuristic must always
produce ground-truth-feasible mappings with energy no better than the
optimum.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.base import mapping_energy, mapping_feasible
from repro.core.context import PREDICTED_JOB_ID, PlannedTask, RMContext
from repro.core.exact import ExactResourceManager
from repro.core.heuristic import HeuristicResourceManager
from repro.core.milp_rm import MilpResourceManager
from repro.model.platform import Platform
from repro.model.task import TaskType

PLATFORM = Platform.cpu_gpu(2, 1)


@st.composite
def random_task(draw, n=3):
    wcet = [draw(st.floats(min_value=1.0, max_value=20.0)) for _ in range(n)]
    energy = [draw(st.floats(min_value=0.1, max_value=10.0)) for _ in range(n)]
    if draw(st.booleans()):
        # GPU-only task
        wcet[0] = wcet[1] = math.inf
        energy[0] = energy[1] = math.inf
    cm = draw(st.floats(min_value=0.0, max_value=3.0))
    em = draw(st.floats(min_value=0.0, max_value=2.0))
    return TaskType(
        type_id=0,
        wcet=tuple(wcet),
        energy=tuple(energy),
        migration_time=cm,
        migration_energy=em,
    )


@st.composite
def random_context(draw):
    n_tasks = draw(st.integers(min_value=1, max_value=4))
    with_predicted = draw(st.booleans())
    tasks = []
    for job_id in range(n_tasks):
        task = draw(random_task())
        deadline = draw(st.floats(min_value=2.0, max_value=60.0))
        state = draw(st.integers(min_value=0, max_value=3))
        kwargs = {}
        if state >= 1:
            resource = draw(
                st.sampled_from(task.executable_resources)
            )
            kwargs["current_resource"] = resource
        if state >= 2:
            kwargs["started"] = True
            kwargs["remaining_fraction"] = draw(
                st.floats(min_value=0.05, max_value=1.0)
            )
            if state == 3 and kwargs["current_resource"] == 2:
                kwargs["running_non_preemptable"] = True
        tasks.append(
            PlannedTask(
                job_id=job_id,
                task=task,
                absolute_deadline=deadline,
                **kwargs,
            )
        )
    if with_predicted:
        task = draw(random_task())
        arrival = draw(st.floats(min_value=0.0, max_value=15.0))
        rel_deadline = draw(st.floats(min_value=2.0, max_value=40.0))
        tasks.append(
            PlannedTask(
                job_id=PREDICTED_JOB_ID,
                task=task,
                absolute_deadline=arrival + rel_deadline,
                is_predicted=True,
                arrival=arrival,
            )
        )
    # Only one task may be running on the (single) non-preemptable GPU.
    running_gpu = [
        t for t in tasks if t.running_non_preemptable
    ]
    for extra in running_gpu[1:]:
        position = tasks.index(extra)
        tasks[position] = PlannedTask(
            job_id=extra.job_id,
            task=extra.task,
            absolute_deadline=extra.absolute_deadline,
            remaining_fraction=extra.remaining_fraction,
            current_resource=extra.current_resource,
            started=extra.started,
            running_non_preemptable=False,
        )
    return RMContext(time=0.0, platform=PLATFORM, tasks=tuple(tasks))


# A GPU-only ready job plus a predicted task arriving at exactly 1e-9
# (the timeline's EPS and the HiGHS feasibility tolerance): HiGHS used
# to stop with a solve error, read as infeasible.
_ARRIVAL_AT_TOLERANCE = RMContext(
    time=0.0,
    platform=PLATFORM,
    tasks=(
        PlannedTask(
            job_id=0,
            task=TaskType(
                type_id=0,
                wcet=(math.inf, math.inf, 1.0),
                energy=(math.inf, math.inf, 1.0),
                migration_time=0.0,
                migration_energy=0.0,
            ),
            absolute_deadline=28.0,
        ),
        PlannedTask(
            job_id=PREDICTED_JOB_ID,
            task=TaskType(
                type_id=0,
                wcet=(1.0, 1.0, 20.0),
                energy=(1.0, 1.0, 1.0),
                migration_time=0.0,
                migration_energy=0.0,
            ),
            absolute_deadline=1e-9 + 27.0,
            is_predicted=True,
            arrival=1e-9,
        ),
    ),
)


@given(random_context())
@example(_ARRIVAL_AT_TOLERANCE)
@settings(max_examples=120, deadline=None)
def test_milp_matches_exact_search(context):
    milp = MilpResourceManager().solve(context)
    exact = ExactResourceManager().solve(context)
    assert milp.feasible == exact.feasible, (
        f"feasibility disagreement: milp={milp}, exact={exact}"
    )
    if milp.feasible:
        assert milp.energy == pytest.approx(exact.energy, abs=1e-5), (
            f"optimum disagreement: milp={milp}, exact={exact}"
        )
        assert mapping_feasible(context, milp.mapping)
        assert mapping_feasible(context, exact.mapping)


@given(random_context())
@settings(max_examples=120, deadline=None)
def test_heuristic_sound_and_never_beats_optimum(context):
    heuristic = HeuristicResourceManager().solve(context)
    if not heuristic.feasible:
        return
    assert mapping_feasible(context, heuristic.mapping)
    assert heuristic.energy == pytest.approx(
        mapping_energy(context, heuristic.mapping)
    )
    exact = ExactResourceManager().solve(context)
    assert exact.feasible  # heuristic found one, so the optimum exists
    assert heuristic.energy >= exact.energy - 1e-6


@given(random_context())
@settings(max_examples=60, deadline=None)
def test_bnb_backend_agrees_with_scipy(context):
    scipy_rm = MilpResourceManager(backend="scipy").solve(context)
    bnb_rm = MilpResourceManager(backend="bnb").solve(context)
    assert scipy_rm.feasible == bnb_rm.feasible
    if scipy_rm.feasible:
        assert scipy_rm.energy == pytest.approx(bnb_rm.energy, abs=1e-5)


@given(random_context())
@settings(max_examples=80, deadline=None)
def test_prediction_only_constrains(context):
    """Removing the predicted task can only improve the optimum: it is a
    constraint (plus a non-negative objective term), never a benefit."""
    if context.predicted is None:
        return
    with_p = ExactResourceManager().solve(context)
    without_p = ExactResourceManager().solve(context.without_prediction())
    if with_p.feasible:
        assert without_p.feasible
        predicted_share = min(
            context.energy(context.predicted, i)
            for i in context.candidate_resources(context.predicted)
        )
        assert without_p.energy <= with_p.energy - predicted_share + 1e-6
