"""E8 — the accuracy-vs-energy frontier under workload drift.

The paper's Fig. 4 sweeps *emulated* predictor accuracy against the
rejection rate.  With the online-learning suite (DESIGN.md §16) the
sweep becomes a genuine frontier: every real predictor earns its own
accuracy on the stream, and a drift scenario — a seeded
``"regime-shift"`` :class:`~repro.faults.plan.TraceFault` that remaps
the type mix and rescales the cadence mid-trace — moves each predictor
along the accuracy axis by exactly as much as it fails to adapt.  The
experiment reports, per ``scenario x predictor``:

* measured prediction quality (type accuracy, arrival NRMSE) from
  :func:`repro.predict.metrics.evaluate_predictor` on the *perturbed*
  traces, and
* management outcomes (mean normalised energy, mean rejection) from the
  simulation matrix under the same fault plan,

which together trace how prediction accuracy buys energy — and how
drift erodes the purchase.  Everything is deterministic: the scenarios
derive their seeds from the harness master seed, and the CSV emitted by
:func:`frontier_csv` is digest-pinned by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.common import standard_platform, standard_traces
from repro.experiments.config import HarnessScale
from repro.experiments.runner import Aggregate, RunSpec, run_matrix
from repro.faults.plan import FaultPlan, TraceFault
from repro.predict.metrics import evaluate_predictor
from repro.registry import resolve_predictor
from repro.util.atomicio import atomic_write_text
from repro.util.rng import derive_seed
from repro.util.tables import ascii_table
from repro.workload.trace import Trace
from repro.workload.tracegen import DeadlineGroup

__all__ = [
    "DEFAULT_FRONTIER_PREDICTORS",
    "DRIFT_SCENARIOS",
    "FrontierCell",
    "FrontierResult",
    "drift_plan",
    "frontier_csv",
    "render_fig4_frontier",
    "run_frontier",
    "write_frontier_csv",
]

DEFAULT_FRONTIER_PREDICTORS: tuple[str, ...] = (
    "learned",
    "ar",
    "seasonal",
    "drift",
)
"""The online predictors on the frontier (plus the implicit "off" row)."""

DRIFT_SCENARIOS: tuple[str, ...] = ("stable", "mid-shift", "double-shift")
"""The drift scenarios swept by default.

``"stable"`` injects nothing (the no-drift reference), ``"mid-shift"``
flips the regime once at 45% of the horizon, ``"double-shift"`` piles a
second, harsher flip on at 70%.
"""


def drift_plan(
    scenario: str, horizon: float, *, master_seed: int = 0
) -> FaultPlan | None:
    """The :class:`~repro.faults.plan.FaultPlan` of one named scenario.

    ``horizon`` is the arrival span of the traces the plan will perturb;
    shift boundaries are placed at fixed fractions of it.  Returns
    ``None`` for the ``"stable"`` scenario so the zero-fault path stays
    ``is``-identical to a plain run.  Plans derive their seed from
    ``(master_seed, scenario)``, never from the caller's RNG state.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    seed = derive_seed(master_seed, f"frontier:{scenario}")
    span = horizon * 1.25  # cover stragglers past the nominal horizon
    if scenario == "stable":
        return None
    if scenario == "mid-shift":
        return FaultPlan(
            seed=seed,
            trace_faults=(
                TraceFault("regime-shift", 0.45 * horizon, span, factor=1.5),
            ),
        )
    if scenario == "double-shift":
        return FaultPlan(
            seed=seed,
            trace_faults=(
                TraceFault(
                    "regime-shift", 0.45 * horizon, 0.7 * horizon, factor=1.5
                ),
                TraceFault("regime-shift", 0.7 * horizon, span, factor=0.5),
            ),
        )
    raise ValueError(
        f"unknown drift scenario {scenario!r}; choose from {DRIFT_SCENARIOS}"
    )


@dataclass(frozen=True)
class FrontierCell:
    """One ``scenario x predictor`` point of the frontier."""

    scenario: str
    predictor: str
    type_accuracy: float
    arrival_nrmse: float
    coverage: float
    mean_energy: float
    mean_rejection: float


@dataclass
class FrontierResult:
    """The full frontier: cells plus the raw aggregates."""

    scale: HarnessScale
    strategy: str
    scenarios: tuple[str, ...]
    predictors: tuple[str, ...]
    cells: list[FrontierCell] = field(default_factory=list)
    aggregates: dict[str, Aggregate] = field(default_factory=dict)

    def cell(self, scenario: str, predictor: str) -> FrontierCell:
        for candidate in self.cells:
            if (
                candidate.scenario == scenario
                and candidate.predictor == predictor
            ):
                return candidate
        raise KeyError(f"no frontier cell for {predictor}@{scenario}")


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.inf


def _score_predictor(
    name: str, traces: list[Trace]
) -> tuple[float, float, float]:
    """Mean (type accuracy, arrival NRMSE, coverage) over the traces."""
    accuracies: list[float] = []
    errors: list[float] = []
    coverages: list[float] = []
    for trace in traces:
        report = evaluate_predictor(resolve_predictor(name), trace)
        accuracies.append(report.type_accuracy)
        errors.append(report.arrival_nrmse)
        coverages.append(report.coverage)
    return _mean(accuracies), _mean(errors), _mean(coverages)


def run_frontier(
    scale: HarnessScale | None = None,
    *,
    strategy: str = "heuristic",
    predictors: tuple[str, ...] = DEFAULT_FRONTIER_PREDICTORS,
    scenarios: tuple[str, ...] = DRIFT_SCENARIOS,
    group: DeadlineGroup = DeadlineGroup.VT,
    parallel: int | None = None,
) -> FrontierResult:
    """Sweep ``scenarios x (predictors + off)`` into a frontier.

    One :func:`~repro.experiments.runner.run_matrix` call per scenario —
    the scenario's fault plan perturbs every trace of the matrix
    identically — plus a prediction-quality pass over the perturbed
    traces.  Labels are ``f"{predictor}@{scenario}"``.
    """
    scale = scale or HarnessScale.from_env(
        default_traces=4, default_requests=100
    )
    platform = standard_platform()
    traces = standard_traces(group, scale)
    horizon = max(trace.requests[-1].arrival for trace in traces)
    result = FrontierResult(
        scale=scale,
        strategy=strategy,
        scenarios=tuple(scenarios),
        predictors=tuple(predictors),
    )
    for scenario in scenarios:
        plan = drift_plan(
            scenario, horizon, master_seed=scale.master_seed
        )
        specs = [
            RunSpec.from_names(
                f"{name}@{scenario}", strategy=strategy, predictor=name
            )
            for name in predictors
        ]
        specs.append(
            RunSpec.from_names(f"off@{scenario}", strategy=strategy)
        )
        aggregates = run_matrix(
            traces, platform, specs, parallel=parallel, fault_plan=plan
        )
        result.aggregates.update(aggregates)
        perturbed = (
            traces
            if plan is None
            else [plan.perturb_trace(trace) for trace in traces]
        )
        for name in (*predictors, "off"):
            accuracy, nrmse, coverage = _score_predictor(name, perturbed)
            aggregate = aggregates[f"{name}@{scenario}"]
            result.cells.append(
                FrontierCell(
                    scenario=scenario,
                    predictor=name,
                    type_accuracy=accuracy,
                    arrival_nrmse=nrmse,
                    coverage=coverage,
                    mean_energy=aggregate.mean_energy,
                    mean_rejection=aggregate.mean_rejection,
                )
            )
    return result


def frontier_csv(result: FrontierResult) -> str:
    """The frontier as deterministic CSV text.

    Floats are rendered with ``repr`` (shortest round-trip), so the text
    — and therefore its digest — is bit-stable for bit-identical runs.
    """
    lines = [
        "scenario,predictor,type_accuracy,arrival_nrmse,coverage,"
        "mean_energy,mean_rejection"
    ]
    for cell in result.cells:
        lines.append(
            ",".join(
                (
                    cell.scenario,
                    cell.predictor,
                    repr(cell.type_accuracy),
                    repr(cell.arrival_nrmse),
                    repr(cell.coverage),
                    repr(cell.mean_energy),
                    repr(cell.mean_rejection),
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_frontier_csv(result: FrontierResult, path: str | Path) -> Path:
    """Write :func:`frontier_csv` atomically; returns the path."""
    target = Path(path)
    atomic_write_text(target, frontier_csv(result))
    return target


def render_fig4_frontier(result: FrontierResult) -> str:
    """ASCII rendering: one table per scenario, accuracy beside energy."""
    parts = [
        f"Fig. 4 frontier: accuracy vs energy under drift "
        f"(strategy {result.strategy}, {result.scale.n_traces} traces x "
        f"{result.scale.n_requests} requests)"
    ]
    headers = [
        "predictor",
        "type acc",
        "nrmse",
        "coverage",
        "energy",
        "rejection %",
    ]
    for scenario in result.scenarios:
        rows = []
        for name in (*result.predictors, "off"):
            cell = result.cell(scenario, name)
            rows.append(
                [
                    name,
                    round(cell.type_accuracy, 4),
                    (
                        round(cell.arrival_nrmse, 4)
                        if math.isfinite(cell.arrival_nrmse)
                        else "inf"
                    ),
                    round(cell.coverage, 4),
                    round(cell.mean_energy, 4),
                    round(cell.mean_rejection, 4),
                ]
            )
        parts.append(f"scenario: {scenario}")
        parts.append(ascii_table(headers, rows))
    return "\n\n".join(parts)
