"""E4/E5 — Fig. 4: rejection vs prediction accuracy (VT group).

Panel (a) degrades the *task type*: with probability ``1 - accuracy`` the
predicted request identity is wrong (arrival exact).  Panel (b) degrades
the *arrival time*: Gaussian noise sized so the normalised RMS error is
``1 - accuracy`` (type exact).  Accuracy 1.0 is the oracle; the
"predictor off" level is included as the reference line.

Paper shape to reproduce: rejection rises monotonically as accuracy
falls, and by accuracy 0.25 the benefit over "off" is essentially gone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import standard_platform, standard_traces
from repro.experiments.config import HarnessScale
from repro.experiments.runner import Aggregate, RunSpec, run_matrix
from repro.util.rng import derive_seed
from repro.util.tables import ascii_line_chart, ascii_table
from repro.workload.tracegen import DeadlineGroup

__all__ = [
    "AccuracySweepResult",
    "DEFAULT_ACCURACY_LEVELS",
    "run_accuracy_sweep",
    "render_fig4",
]

DEFAULT_ACCURACY_LEVELS: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25)
"""The accuracy levels on the paper's x-axis."""


@dataclass
class AccuracySweepResult:
    """Rejection vs accuracy for one noise axis."""

    axis: str  # "type" or "arrival"
    scale: HarnessScale
    levels: tuple[float, ...]
    aggregates: dict[str, Aggregate]  # f"{strategy}@{level}" and f"{strategy}@off"

    def rejection(self, strategy: str, level: float | str) -> float:
        if isinstance(level, str):
            return self.aggregates[f"{strategy}@{level}"].mean_rejection
        return self.aggregates[f"{strategy}@{level:g}"].mean_rejection

    def monotone_non_decreasing(self, strategy: str, tolerance: float = 0.0) -> bool:
        """Rejection does not drop as accuracy degrades (within tol)."""
        series = [self.rejection(strategy, level) for level in self.levels]
        return all(
            b >= a - tolerance
            for a, b in zip(series, series[1:], strict=False)
        )


def _noise_predictor_name(axis: str) -> str:
    if axis in ("type", "arrival"):
        return f"{axis}-noise"
    raise ValueError(f"unknown noise axis {axis!r}")


def run_accuracy_sweep(
    axis: str,
    scale: HarnessScale | None = None,
    *,
    levels: tuple[float, ...] = DEFAULT_ACCURACY_LEVELS,
    strategies: tuple[str, ...] = ("milp", "heuristic"),
    group: DeadlineGroup = DeadlineGroup.VT,
    parallel: int | None = None,
) -> AccuracySweepResult:
    """Sweep one noise axis over the VT group."""
    predictor = _noise_predictor_name(axis)
    scale = scale or HarnessScale.from_env(default_traces=6, default_requests=100)
    platform = standard_platform()
    traces = standard_traces(group, scale)
    specs = []
    for name in strategies:
        for level in levels:
            noise_seed = derive_seed(scale.master_seed, f"{axis}:{level}")
            specs.append(
                RunSpec.from_names(
                    f"{name}@{level:g}",
                    strategy=name,
                    predictor=predictor,
                    predictor_kwargs={"accuracy": level, "seed": noise_seed},
                )
            )
        specs.append(RunSpec.from_names(f"{name}@off", strategy=name))
    aggregates = run_matrix(traces, platform, specs, parallel=parallel)
    return AccuracySweepResult(
        axis=axis, scale=scale, levels=tuple(levels), aggregates=aggregates
    )


def render_fig4(
    type_sweep: AccuracySweepResult, arrival_sweep: AccuracySweepResult
) -> str:
    """ASCII rendering of both panels of Fig. 4."""
    parts = []
    for panel, sweep in (("(a) task type", type_sweep), ("(b) arrival time", arrival_sweep)):
        strategies = sorted(
            {label.split("@")[0] for label in sweep.aggregates}
        )
        series = {
            name: [sweep.rejection(name, level) for level in sweep.levels]
            for name in strategies
        }
        parts.append(
            ascii_line_chart(
                list(sweep.levels),
                series,
                title=f"Fig. 4{panel}: rejection %% vs accuracy "
                f"({sweep.scale.n_traces} traces x "
                f"{sweep.scale.n_requests} requests)",
            )
        )
        rows = []
        for name in strategies:
            row = [name]
            row.extend(sweep.rejection(name, level) for level in sweep.levels)
            row.append(sweep.rejection(name, "off"))
            rows.append(row)
        headers = ["strategy", *(f"acc {level:g}" for level in sweep.levels)]
        headers.append("off")
        parts.append(ascii_table(headers, rows))
    return "\n\n".join(parts)
