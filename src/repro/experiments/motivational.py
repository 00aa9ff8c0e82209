"""E7 — the motivational example (Sec. 3, Table 1, Fig. 1).

Two CPUs, one GPU, and two tasks:

======  =====  =====  ================  ==================
task    s_j    d_j    WCET (CPU1/2/GPU)  Energy (CPU1/2/GPU)
======  =====  =====  ================  ==================
tau_1    0      8       8 / 12 / 5        7.3 / 8.4 / 2
tau_2    1      5       7 / 8.5 / 3       6.2 / 7.5 / 1.5
======  =====  =====  ================  ==================

Three scenarios, with the paper's expected outcomes:

* **(a) no prediction** — the RM greedily gives the GPU to tau_1 at time
  0; at time 1 tau_2 can only meet its deadline on the GPU, which cannot
  be preempted, and aborting tau_1 misses tau_1's deadline.  tau_2 is
  rejected: acceptance 1/2.
* **(b) accurate prediction** — knowing tau_2 will arrive at time 1, the
  RM maps tau_1 to CPU1 and reserves the GPU: acceptance 2/2.
* **(c) inaccurate prediction** — tau_2 is predicted at time 1 but
  actually arrives at time 3.  The (wrong) prediction still pushes tau_1
  to CPU1; both tasks meet their deadlines at a total energy of 8.8 J.
  Without prediction, tau_1 runs on the GPU, finishes at 5, tau_2 then
  fits on the GPU by its deadline — total energy only 3.5 J.  The wrong
  prediction more than doubles the energy: prediction can be harmful.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.heuristic import HeuristicResourceManager
from repro.experiments.runner import RunSpec, run_matrix
from repro.model.platform import Platform
from repro.model.request import PredictedRequest, Request
from repro.model.task import TaskType
from repro.predict.oracle import OraclePredictor
from repro.predict.scripted import ScriptedPredictor
from repro.util.tables import ascii_table
from repro.workload.trace import Trace

__all__ = [
    "MotivationalOutcome",
    "build_platform",
    "build_tasks",
    "build_trace",
    "run_motivational",
    "render_motivational",
]


@dataclass(frozen=True)
class MotivationalOutcome:
    """Results of the three scenarios."""

    accepted_without_prediction: int
    accepted_with_prediction: int
    energy_wrong_prediction: float
    energy_no_prediction_late: float

    def matches_paper(self) -> bool:
        """Whether all four paper claims hold."""
        return (
            self.accepted_without_prediction == 1
            and self.accepted_with_prediction == 2
            and abs(self.energy_wrong_prediction - 8.8) < 1e-6
            and abs(self.energy_no_prediction_late - 3.5) < 1e-6
        )


def build_platform() -> Platform:
    """Two CPUs and one GPU."""
    return Platform.cpu_gpu(n_cpus=2, n_gpus=1)


def build_tasks() -> list[TaskType]:
    """Table 1's task parameters (no migration overhead in the example)."""
    tau_1 = TaskType(
        type_id=0, name="tau1", wcet=(8.0, 12.0, 5.0), energy=(7.3, 8.4, 2.0)
    )
    tau_2 = TaskType(
        type_id=1, name="tau2", wcet=(7.0, 8.5, 3.0), energy=(6.2, 7.5, 1.5)
    )
    return [tau_1, tau_2]


def build_trace(*, tau2_arrival: float = 1.0) -> Trace:
    """The two-request stream; ``tau2_arrival`` = 1 (scenarios a/b) or 3
    (scenario c, where the prediction of 1 is wrong)."""
    tasks = build_tasks()
    requests = [
        Request(index=0, arrival=0.0, type_id=0, deadline=8.0),
        Request(index=1, arrival=tau2_arrival, type_id=1, deadline=5.0),
    ]
    return Trace(tasks, requests, group="motivational")


def _wrong_predictor() -> ScriptedPredictor:
    """Scenario (c)'s predictor: announces tau_2 at time 1 (it arrives at
    3).  Module-level so the spec pickles for parallel execution."""
    return ScriptedPredictor(
        {0: PredictedRequest(arrival=1.0, type_id=1, deadline=5.0)}
    )


def run_motivational(
    strategy_factory=HeuristicResourceManager,
    *,
    parallel: int | None = None,
) -> MotivationalOutcome:
    """Run the three scenarios with the given strategy (heuristic by
    default; the exact/MILP managers give identical outcomes)."""
    platform = build_platform()

    # Scenarios (a)/(b): tau_2 at time 1, prediction off vs accurate —
    # without prediction tau_2 must be rejected, with it both fit.
    trace_early = build_trace(tau2_arrival=1.0)
    early = run_matrix(
        [trace_early],
        platform,
        [
            RunSpec(label="no-prediction", strategy=strategy_factory),
            RunSpec(
                label="with-prediction",
                strategy=strategy_factory,
                predictor=OraclePredictor,
            ),
        ],
        keep_results=True,
        parallel=parallel,
    )

    # Scenario (c): predicted at 1, actually arrives at 3.
    trace_late = build_trace(tau2_arrival=3.0)
    late = run_matrix(
        [trace_late],
        platform,
        [
            RunSpec(
                label="wrong-prediction",
                strategy=strategy_factory,
                predictor=_wrong_predictor,
            ),
            RunSpec(label="late-no-prediction", strategy=strategy_factory),
        ],
        keep_results=True,
        parallel=parallel,
    )

    return MotivationalOutcome(
        accepted_without_prediction=early["no-prediction"].results[0].n_accepted,
        accepted_with_prediction=early["with-prediction"].results[0].n_accepted,
        energy_wrong_prediction=late["wrong-prediction"].results[0].total_energy,
        energy_no_prediction_late=(
            late["late-no-prediction"].results[0].total_energy
        ),
    )


def render_motivational(outcome: MotivationalOutcome) -> str:
    """ASCII report comparing measured outcomes with the paper's."""
    rows = [
        ["(a) acceptance, no prediction", "1/2", f"{outcome.accepted_without_prediction}/2"],
        ["(b) acceptance, accurate prediction", "2/2", f"{outcome.accepted_with_prediction}/2"],
        ["(c) energy, wrong prediction (J)", 8.8, outcome.energy_wrong_prediction],
        ["(c) energy, no prediction (J)", 3.5, outcome.energy_no_prediction_late],
    ]
    table = ascii_table(
        ["scenario", "paper", "measured"],
        rows,
        title="Motivational example (Sec. 3, Table 1, Fig. 1)",
    )
    verdict = "all outcomes match the paper" if outcome.matches_paper() else (
        "MISMATCH with the paper"
    )
    return f"{table}\n=> {verdict}"
