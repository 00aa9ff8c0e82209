"""One-call regeneration of the paper's full evaluation.

:func:`run_all` executes E1–E7 at a given harness scale and returns the
rendered report plus machine-readable summaries; the CLI exposes it as
``python -m repro experiment all``.  This is the programmatic equivalent
of running the whole benchmark harness, minus pytest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.config import HarnessScale
from repro.experiments.fig2_rejection import (
    render_fig2,
    run_prediction_impact,
)
from repro.experiments.fig3_energy import render_fig3
from repro.experiments.fig4_accuracy import render_fig4, run_accuracy_sweep
from repro.experiments.fig4_frontier import (
    frontier_csv,
    render_fig4_frontier,
    run_frontier,
)
from repro.experiments.fig5_overhead import render_fig5, run_overhead_sweep
from repro.experiments.motivational import (
    render_motivational,
    run_motivational,
)
from repro.experiments.reporting import aggregates_to_dict, save_report
from repro.experiments.sec52_milp_vs_heuristic import render_sec52, run_sec52
from repro.util.atomicio import atomic_write_text
from repro.workload.tracegen import DeadlineGroup

__all__ = ["FullReport", "run_all"]


@dataclass
class FullReport:
    """Everything one evaluation pass produced."""

    scale: HarnessScale
    sections: dict[str, str] = field(default_factory=dict)
    payloads: dict[str, dict] = field(default_factory=dict)

    def render(self) -> str:
        """The complete human-readable report."""
        parts = [
            "Reproduction report — Runtime Resource Management with "
            "Workload Prediction (DAC 2019)",
            f"configuration: {self.scale.n_traces} traces x "
            f"{self.scale.n_requests} requests per group, "
            f"seed {self.scale.master_seed}",
            "",
        ]
        for name in sorted(self.sections):
            parts.append(f"{'=' * 72}\n{name}\n{'=' * 72}")
            parts.append(self.sections[name])
            parts.append("")
        return "\n".join(parts)

    def save(self, directory: str | Path) -> list[Path]:
        """Persist the rendered report, JSON payloads and SVG figures."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        report_path = directory / "report.txt"
        atomic_write_text(report_path, self.render())
        written.append(report_path)
        for name, payload in self.payloads.items():
            path = directory / f"{name}.json"
            save_report(path, name, payload)
            written.append(path)
        written.extend(self._save_figures(directory))
        return written

    def _save_figures(self, directory: Path) -> list[Path]:
        """Best-effort SVG versions of Fig. 2 and Fig. 5."""
        from repro.experiments.svg import bar_chart_svg, line_chart_svg

        written: list[Path] = []
        fig23 = self.payloads.get("fig2_fig3")
        if fig23:
            for group, aggregates in fig23.items():
                labels = sorted(aggregates)
                values = [aggregates[l]["mean_rejection"] for l in labels]
                path = directory / f"fig2_{group.lower()}.svg"
                bar_chart_svg(
                    labels,
                    values,
                    title=f"Fig. 2 ({group}): rejection %",
                    unit="%",
                    path=path,
                )
                written.append(path)
        fig5 = self.payloads.get("fig5")
        if fig5:
            strategies = sorted(
                {label.split("@")[0] for label in fig5 if "@off" not in label}
            )
            coefficients = sorted(
                {
                    float(label.split("@")[1])
                    for label in fig5
                    if not label.endswith("@off")
                }
            )
            series = {
                name: [
                    fig5[f"{name}@{c:g}"]["mean_rejection"]
                    for c in coefficients
                ]
                for name in strategies
            }
            for name in strategies:
                off = fig5.get(f"{name}@off")
                if off:
                    series[f"{name} (off)"] = [
                        off["mean_rejection"] for _ in coefficients
                    ]
            path = directory / "fig5.svg"
            line_chart_svg(
                [100 * c for c in coefficients],
                series,
                title="Fig. 5: rejection vs prediction overhead",
                x_label="overhead (% of mean inter-arrival)",
                y_label="rejection %",
                path=path,
            )
            written.append(path)
        return written


def run_all(
    scale: HarnessScale | None = None,
    *,
    strategies: tuple[str, ...] = ("milp", "heuristic"),
    progress=None,
    parallel=None,
) -> FullReport:
    """Run every experiment (E1–E7) and collect the rendered artefacts.

    ``progress`` is an optional ``callable(section_name)`` invoked before
    each experiment (for console feedback on long runs).  ``parallel``
    (a worker count, see :func:`~repro.experiments.runner.run_matrix`)
    fans each experiment's matrix out over worker processes.
    """
    scale = scale or HarnessScale.from_env(default_traces=5, default_requests=120)
    report = FullReport(scale=scale)

    def step(name: str):
        if progress is not None:
            progress(name)

    step("E7 motivational")
    outcome = run_motivational(parallel=parallel)
    report.sections["E7 motivational (Table 1 / Fig. 1)"] = (
        render_motivational(outcome)
    )
    report.payloads["motivational"] = {
        "accepted_without_prediction": outcome.accepted_without_prediction,
        "accepted_with_prediction": outcome.accepted_with_prediction,
        "energy_wrong_prediction": outcome.energy_wrong_prediction,
        "energy_no_prediction_late": outcome.energy_no_prediction_late,
        "matches_paper": outcome.matches_paper(),
    }

    step("E1 sec52")
    sec52 = run_sec52(scale, parallel=parallel)
    report.sections["E1 Sec. 5.2 (MILP vs heuristic)"] = render_sec52(sec52)
    report.payloads["sec52"] = {
        "milp_mean": sec52.milp_mean,
        "heuristic_mean": sec52.heuristic_mean,
        "milp_win_fraction": sec52.milp_win_fraction,
        "milp_rejections": sec52.milp_rejections,
        "heuristic_rejections": sec52.heuristic_rejections,
    }

    step("E2/E3 fig2+fig3")
    lt = run_prediction_impact(
        DeadlineGroup.LT, scale, strategies=strategies, parallel=parallel
    )
    vt = run_prediction_impact(
        DeadlineGroup.VT, scale, strategies=strategies, parallel=parallel
    )
    report.sections["E2 Fig. 2 (rejection, prediction on/off)"] = render_fig2(
        lt, vt
    )
    report.sections["E3 Fig. 3 (normalised energy)"] = render_fig3(lt, vt)
    report.payloads["fig2_fig3"] = {
        "LT": aggregates_to_dict(lt.aggregates),
        "VT": aggregates_to_dict(vt.aggregates),
    }

    step("E4/E5 fig4")
    type_sweep = run_accuracy_sweep(
        "type", scale, strategies=strategies, parallel=parallel
    )
    arrival_sweep = run_accuracy_sweep(
        "arrival", scale, strategies=strategies, parallel=parallel
    )
    report.sections["E4/E5 Fig. 4 (accuracy sweeps)"] = render_fig4(
        type_sweep, arrival_sweep
    )
    report.payloads["fig4"] = {
        "type": aggregates_to_dict(type_sweep.aggregates),
        "arrival": aggregates_to_dict(arrival_sweep.aggregates),
    }

    step("E6 fig5")
    overhead = run_overhead_sweep(scale, strategies=strategies, parallel=parallel)
    report.sections["E6 Fig. 5 (overhead sweep)"] = render_fig5(overhead)
    report.payloads["fig5"] = aggregates_to_dict(overhead.aggregates)

    step("E8 fig4 frontier")
    frontier = run_frontier(scale, parallel=parallel)
    report.sections["E8 Fig. 4 frontier (accuracy vs energy under drift)"] = (
        render_fig4_frontier(frontier)
    )
    report.payloads["fig4_frontier"] = {
        "csv": frontier_csv(frontier),
        "aggregates": aggregates_to_dict(frontier.aggregates),
    }

    return report
