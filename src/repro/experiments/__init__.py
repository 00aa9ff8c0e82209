"""The paper's evaluation, experiment by experiment.

One module per table/figure (see DESIGN.md's experiment index):

* E1  ``sec52_milp_vs_heuristic`` — MILP vs heuristic without prediction
  (mean rejection, per-trace win fraction);
* E2  ``fig2_rejection`` — rejection with/without prediction, LT and VT;
* E3  ``fig3_energy`` — normalised energy of the same runs;
* E4/E5  ``fig4_accuracy`` — rejection vs type / arrival-time accuracy;
* E6  ``fig5_overhead`` — rejection vs prediction overhead (crossover);
* E7  ``motivational`` — Table 1 / Fig. 1 scenario, exact outcomes;
* E8  ``fig4_frontier`` — accuracy-vs-energy frontier of the online
  predictor suite under drift scenarios (DESIGN.md §16).

Every experiment accepts a :class:`~repro.experiments.config.HarnessScale`
and defaults to a reduced configuration controlled by ``REPRO_TRACES`` /
``REPRO_REQUESTS`` / ``REPRO_FULL`` / ``REPRO_SEED``.  Passing
``parallel=N`` (or ``--jobs N`` on the CLI) maps the (configuration x
trace) matrix over N worker processes with results bit-identical to the
in-process run (:func:`~repro.experiments.runner.run_matrix`).
"""

from repro.experiments.config import CALIBRATED_ARRIVAL_SCALE, HarnessScale
from repro.experiments.common import (
    STRATEGIES,
    standard_platform,
    standard_traces,
    strategy_factory,
)
from repro.experiments.fig2_rejection import (
    PredictionImpactResult,
    render_fig2,
    run_prediction_impact,
)
from repro.experiments.fig3_energy import energy_follows_acceptance, render_fig3
from repro.experiments.fig4_accuracy import (
    DEFAULT_ACCURACY_LEVELS,
    AccuracySweepResult,
    render_fig4,
    run_accuracy_sweep,
)
from repro.experiments.fig4_frontier import (
    DEFAULT_FRONTIER_PREDICTORS,
    DRIFT_SCENARIOS,
    FrontierCell,
    FrontierResult,
    drift_plan,
    frontier_csv,
    render_fig4_frontier,
    run_frontier,
    write_frontier_csv,
)
from repro.experiments.fig5_overhead import (
    DEFAULT_OVERHEAD_COEFFICIENTS,
    OverheadSweepResult,
    render_fig5,
    run_overhead_sweep,
)
from repro.experiments.motivational import (
    MotivationalOutcome,
    render_motivational,
    run_motivational,
)
from repro.experiments.report_all import FullReport, run_all
from repro.experiments.runner import (
    Aggregate,
    CellStats,
    RunSpec,
    run_matrix,
)
from repro.experiments.sec52_milp_vs_heuristic import (
    Sec52Result,
    render_sec52,
    run_sec52,
)

__all__ = [
    "HarnessScale",
    "CALIBRATED_ARRIVAL_SCALE",
    "STRATEGIES",
    "standard_platform",
    "standard_traces",
    "strategy_factory",
    "RunSpec",
    "Aggregate",
    "CellStats",
    "run_matrix",
    "run_all",
    "FullReport",
    "run_prediction_impact",
    "PredictionImpactResult",
    "render_fig2",
    "render_fig3",
    "energy_follows_acceptance",
    "run_accuracy_sweep",
    "AccuracySweepResult",
    "DEFAULT_ACCURACY_LEVELS",
    "render_fig4",
    "run_frontier",
    "FrontierCell",
    "FrontierResult",
    "DEFAULT_FRONTIER_PREDICTORS",
    "DRIFT_SCENARIOS",
    "drift_plan",
    "frontier_csv",
    "write_frontier_csv",
    "render_fig4_frontier",
    "run_overhead_sweep",
    "OverheadSweepResult",
    "DEFAULT_OVERHEAD_COEFFICIENTS",
    "render_fig5",
    "run_sec52",
    "Sec52Result",
    "render_sec52",
    "run_motivational",
    "MotivationalOutcome",
    "render_motivational",
]
