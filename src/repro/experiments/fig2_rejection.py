"""E2 — Fig. 2: average rejection percentage, prediction on vs off.

Reproduces both panels: (a) the LT group and (b) the VT group, each with
four configurations — {MILP, heuristic} x {predictor on (accurate), off}.

The same runs also carry the normalised-energy numbers of Fig. 3
(:mod:`repro.experiments.fig3_energy` renders them), so calling
:func:`run_prediction_impact` once per group regenerates both figures.

Paper shape to reproduce: prediction lowers rejection for both RMs, with
a far larger drop for VT (paper: 9.17 pp MILP / 10.2 pp heuristic) than
for LT (1 pp / 2.6 pp); the heuristic stays within a few points of the
MILP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import standard_platform, standard_traces
from repro.experiments.config import HarnessScale
from repro.experiments.runner import Aggregate, RunSpec, run_matrix
from repro.util.tables import ascii_bar_chart, ascii_table
from repro.workload.tracegen import DeadlineGroup

__all__ = ["PredictionImpactResult", "run_prediction_impact", "render_fig2"]


@dataclass
class PredictionImpactResult:
    """The four configurations' aggregates for one deadline group."""

    group: DeadlineGroup
    scale: HarnessScale
    aggregates: dict[str, Aggregate]

    def rejection(self, strategy: str, predictor: str) -> float:
        """Mean rejection %% for e.g. ``("milp", "on")``."""
        return self.aggregates[f"{strategy}-{predictor}"].mean_rejection

    def energy(self, strategy: str, predictor: str) -> float:
        """Mean normalised energy for a configuration (Fig. 3 view)."""
        return self.aggregates[f"{strategy}-{predictor}"].mean_energy

    def prediction_gain(self, strategy: str) -> float:
        """Rejection reduction (percentage points) from prediction."""
        return self.rejection(strategy, "off") - self.rejection(strategy, "on")


def run_prediction_impact(
    group: DeadlineGroup,
    scale: HarnessScale | None = None,
    *,
    strategies: tuple[str, ...] = ("milp", "heuristic"),
    parallel: int | None = None,
) -> PredictionImpactResult:
    """Run {strategies} x {on, off} over one deadline group."""
    scale = scale or HarnessScale.from_env(default_traces=6, default_requests=100)
    platform = standard_platform()
    traces = standard_traces(group, scale)
    specs = []
    for name in strategies:
        specs.append(RunSpec.from_names(f"{name}-off", strategy=name))
        specs.append(
            RunSpec.from_names(f"{name}-on", strategy=name, predictor="oracle")
        )
    aggregates = run_matrix(traces, platform, specs, parallel=parallel)
    return PredictionImpactResult(group=group, scale=scale, aggregates=aggregates)


def render_fig2(
    lt: PredictionImpactResult, vt: PredictionImpactResult
) -> str:
    """ASCII rendering of both panels of Fig. 2."""
    parts = []
    for panel, result in (("(a) LT", lt), ("(b) VT", vt)):
        labels, values = [], []
        for label, aggregate in sorted(result.aggregates.items()):
            labels.append(label)
            values.append(aggregate.mean_rejection)
        parts.append(
            ascii_bar_chart(
                labels,
                values,
                title=f"Fig. 2{panel}: average rejection percentage "
                f"({result.scale.n_traces} traces x "
                f"{result.scale.n_requests} requests)",
                unit="%",
            )
        )
    rows = []
    for result in (lt, vt):
        for strategy in ("milp", "heuristic"):
            key = f"{strategy}-off"
            if key not in result.aggregates:
                continue
            rows.append(
                [
                    result.group.value,
                    strategy,
                    result.rejection(strategy, "off"),
                    result.rejection(strategy, "on"),
                    result.prediction_gain(strategy),
                ]
            )
    parts.append(
        ascii_table(
            ["group", "strategy", "rejection off %", "rejection on %", "gain pp"],
            rows,
            title="Prediction impact on rejection (paper: LT ~1-2.6 pp, "
            "VT ~9-10 pp)",
        )
    )
    return "\n\n".join(parts)
