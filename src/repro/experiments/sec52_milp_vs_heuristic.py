"""E1 — Sec. 5.2: MILP versus heuristic without prediction.

Over the union of the VT and LT groups, the paper reports (without
prediction):

* average rejection 24.5% (MILP) vs 31% (heuristic);
* the MILP's acceptance is at least the heuristic's on 88% of traces —
  *not* 100%, because per-activation optimality is not globally optimal
  across future arrivals.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.experiments.common import standard_platform, standard_traces
from repro.experiments.config import HarnessScale
from repro.experiments.runner import RunSpec, run_matrix
from repro.util.tables import ascii_table
from repro.workload.tracegen import DeadlineGroup

__all__ = ["Sec52Result", "run_sec52", "render_sec52"]


@dataclass
class Sec52Result:
    """Per-trace rejection percentages of both strategies (VT + LT)."""

    scale: HarnessScale
    milp_rejections: list[float]
    heuristic_rejections: list[float]

    @property
    def milp_mean(self) -> float:
        """Mean MILP rejection percentage over VT + LT."""
        return statistics.fmean(self.milp_rejections)

    @property
    def heuristic_mean(self) -> float:
        """Mean heuristic rejection percentage over VT + LT."""
        return statistics.fmean(self.heuristic_rejections)

    @property
    def milp_win_fraction(self) -> float:
        """Fraction of traces where the MILP's acceptance >= heuristic's."""
        wins = sum(
            1
            for milp, heur in zip(
                self.milp_rejections, self.heuristic_rejections, strict=True
            )
            if milp <= heur
        )
        return wins / len(self.milp_rejections)

    @property
    def milp_strict_loss_fraction(self) -> float:
        """Fraction of traces where the heuristic strictly beats the MILP
        (the paper's counterintuitive 12%)."""
        return 1.0 - self.milp_win_fraction


def run_sec52(
    scale: HarnessScale | None = None,
    *,
    parallel: int | None = None,
) -> Sec52Result:
    """Run both strategies, predictor off, over VT + LT."""
    scale = scale or HarnessScale.from_env(default_traces=5, default_requests=80)
    platform = standard_platform()
    specs = [
        RunSpec.from_names("milp", strategy="milp"),
        RunSpec.from_names("heuristic", strategy="heuristic"),
    ]
    milp: list[float] = []
    heuristic: list[float] = []
    for group in (DeadlineGroup.VT, DeadlineGroup.LT):
        traces = standard_traces(group, scale)
        aggregates = run_matrix(traces, platform, specs, parallel=parallel)
        milp.extend(aggregates["milp"].rejection_percentages)
        heuristic.extend(aggregates["heuristic"].rejection_percentages)
    return Sec52Result(
        scale=scale, milp_rejections=milp, heuristic_rejections=heuristic
    )


def render_sec52(result: Sec52Result) -> str:
    """ASCII report with the paper's reference values."""
    rows = [
        ["mean rejection, MILP (%)", 24.5, result.milp_mean],
        ["mean rejection, heuristic (%)", 31.0, result.heuristic_mean],
        [
            "traces where MILP acceptance >= heuristic (%)",
            88.0,
            100.0 * result.milp_win_fraction,
        ],
    ]
    return ascii_table(
        ["quantity", "paper", "measured"],
        rows,
        title=(
            "Sec. 5.2: MILP vs heuristic without prediction "
            f"({len(result.milp_rejections)} traces: VT + LT, "
            f"{result.scale.n_requests} requests each)"
        ),
    )
