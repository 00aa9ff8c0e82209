"""Structural tests of the generated MILP (white-box).

These pin the *size and shape* of the formulation — which constraints
exist for which context — independently of solver behaviour.
"""



from repro.core.context import PREDICTED_JOB_ID, PlannedTask, RMContext
from repro.core.milp_rm import MilpResourceManager
from repro.milp.model import Model
from repro.model.platform import Platform
from tests.conftest import make_task


def capture_model(context):
    """Solve while capturing the constructed model."""
    captured = {}
    original = Model.solve

    def spy(self):
        captured["model"] = self
        return original(self)

    Model.solve = spy
    try:
        MilpResourceManager().solve(context)
    finally:
        Model.solve = original
    return captured["model"]


def ctx(tasks, platform=None):
    return RMContext(
        time=0.0,
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


def predicted(arrival=5.0, deadline=40.0, task=None):
    return PlannedTask(
        job_id=PREDICTED_JOB_ID,
        task=task or make_task(),
        absolute_deadline=deadline,
        is_predicted=True,
        arrival=arrival,
    )


class TestModelShape:
    def test_one_binary_per_candidate(self):
        # single task, executable everywhere, loose deadline: 3 binaries
        model = capture_model(ctx([planned()]))
        binaries = [v for v in model.variables if v.integer]
        assert len(binaries) == 3

    def test_constraint_2_prunes_variables(self):
        # deadline 8 fits only the GPU (wcet 4): a single binary
        model = capture_model(ctx([planned(deadline=8.0)]))
        binaries = [v for v in model.variables if v.integer]
        assert len(binaries) == 1

    def test_no_selector_binaries_without_prediction(self):
        model = capture_model(ctx([planned(0), planned(1, deadline=12.0)]))
        names = [v.name for v in model.variables]
        assert not any("nodelay" in n or "before" in n for n in names)

    def test_preemptive_selectors_for_sl2(self):
        # predicted with EARLIER deadline than the real task -> the real
        # task is SL2 on the CPUs -> "nodelay" selectors appear there
        model = capture_model(
            ctx([planned(0, deadline=50.0), predicted(arrival=5.0, deadline=20.0)])
        )
        names = [v.name for v in model.variables]
        assert any(n.startswith("nodelay[0,0]") for n in names)
        assert any(n.startswith("nodelay[0,1]") for n in names)
        # GPU (resource 2) is non-preemptable: boundary binaries instead
        assert any(n.startswith("before[0,2]") for n in names)

    def test_no_sl2_machinery_when_predicted_last(self):
        # predicted deadline later than every real task: everyone is SL1
        model = capture_model(
            ctx([planned(0, deadline=20.0), predicted(arrival=5.0, deadline=60.0)])
        )
        names = [v.name for v in model.variables]
        assert not any("nodelay" in n or "before[" in n for n in names)
        # but the predicted start variables exist per candidate resource
        assert any(n.startswith("start_p[") for n in names)

    def test_map_constraints_one_per_task(self):
        model = capture_model(ctx([planned(0), planned(1, deadline=25.0)]))
        map_constraints = [
            row for row in model.rows if row.name.startswith("map[")
        ]
        assert len(map_constraints) == 2

    def test_phantom_energy_toggle_changes_objective(self):
        # The paper's objective sums over all of S-bar: the predicted
        # task's (phantom) energy enters it on every candidate resource.
        with_term = capture_model(ctx([planned(0), predicted()]))
        phantom = {
            v.index
            for v in with_term.variables
            if v.name.startswith(f"x[{PREDICTED_JOB_ID},")
        }
        assert phantom
        assert phantom <= with_term.objective.keys()


class TestForcedTaskOrdering:
    def test_running_gpu_task_leads_cumulative(self):
        # A GPU-running task with a LATE deadline must still appear in
        # every earlier-deadline task's cumulative constraint on the GPU.
        running = planned(
            0,
            deadline=100.0,
            current_resource=2,
            started=True,
            remaining_fraction=0.5,
            running_non_preemptable=True,
        )
        urgent = planned(1, deadline=10.0)
        model = capture_model(ctx([running, urgent]))
        # find urgent's GPU EDF constraint; it must involve x[0,2]
        target = next(row for row in model.rows if row.name == "edf[1,2]")
        x_running_gpu = next(
            v for v in model.variables if v.name == "x[0,2]"
        )
        assert x_running_gpu.index in target.cols
