"""Verified smoke grid (``repro faults --smoke``).

A small {strategy} x {predictor} matrix — the shape of the paper's
Fig. 2 — runs under a set of canonical scenarios with
``SimulationConfig(verify=True)``, so every produced schedule is
re-checked against the paper's constraints (eqs. (1)-(14)).  The first
scenario, ``no-faults``, runs without a fault plan and proves schedules
are correct when nothing goes wrong; the others prove the *degradation
paths* are: transient and permanent resource outages, predictor fault
windows, solver faults behind the watchdog, and a seeded generated mix,
re-checked against the fault-aware invariants too
(``down-resource``, ``predictor-fallback``, ``eviction-accounting``, see
DESIGN.md §10).  Violations are captured per cell instead of aborting
the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.invariants import VerificationError, Violation
from repro.experiments.common import standard_platform, standard_traces
from repro.experiments.config import HarnessScale
from repro.faults.plan import (
    FaultPlan,
    PredictorFault,
    ResourceOutage,
    SolverFault,
)
from repro.registry import resolve_predictor, resolve_strategy
from repro.sim.simulator import SimulationConfig, Simulator
from repro.workload.trace import Trace
from repro.workload.tracegen import DeadlineGroup

__all__ = ["FaultSmokeCell", "FaultSmokeReport", "run_fault_smoke"]


@dataclass(frozen=True)
class FaultSmokeCell:
    """One verified (configuration, scenario, trace) cell."""

    label: str
    scenario: str
    trace_index: int
    ok: bool
    n_spans: int
    n_degradations: int
    n_evicted: int
    violations: tuple[Violation, ...] = ()


@dataclass
class FaultSmokeReport:
    """All cells of one verified smoke run."""

    group: DeadlineGroup
    scale: HarnessScale
    seed: int
    cells: list[FaultSmokeCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def n_violations(self) -> int:
        return sum(len(cell.violations) for cell in self.cells)

    @property
    def n_degradations(self) -> int:
        return sum(cell.n_degradations for cell in self.cells)

    def to_payload(self) -> dict:
        """JSON-safe payload for ``repro faults --smoke --json``."""
        return {
            "ok": self.ok,
            "n_cells": len(self.cells),
            "n_violations": self.n_violations,
            "n_degradations": self.n_degradations,
            "cells": [
                {
                    "label": cell.label,
                    "scenario": cell.scenario,
                    "trace_index": cell.trace_index,
                    "ok": cell.ok,
                    "n_spans": cell.n_spans,
                    "n_degradations": cell.n_degradations,
                    "n_evicted": cell.n_evicted,
                    "violations": [v.render() for v in cell.violations],
                }
                for cell in self.cells
            ],
        }

    def render(self) -> str:
        lines = [
            f"fault-injection smoke run: {self.group.value} group, "
            f"{self.scale.n_traces} traces x {self.scale.n_requests} "
            f"requests, seed {self.seed}, {len(self.cells)} cells -> "
            f"{'OK' if self.ok else 'FAILED'}"
        ]
        for cell in self.cells:
            status = (
                "ok" if cell.ok else f"{len(cell.violations)} violation(s)"
            )
            lines.append(
                f"  {cell.label} / {cell.scenario} / trace "
                f"{cell.trace_index}: {status} ({cell.n_spans} spans, "
                f"{cell.n_degradations} degradation(s), "
                f"{cell.n_evicted} evicted)"
            )
            lines.extend(f"    {v.render()}" for v in cell.violations)
        return "\n".join(lines)


def _scenario_plans(
    trace: Trace, n_resources: int, seed: int
) -> dict[str, FaultPlan | None]:
    """Canonical scenarios sized to one trace's arrival span.

    ``no-faults`` comes first and carries no plan.  Fault windows are
    placed at fixed fractions of the span so every scenario actually
    overlaps live jobs regardless of the trace scale; the generated mix
    keeps one spare resource so the platform never loses everything at
    once.
    """
    span = trace.stats().span or 100.0
    third = span / 3.0
    return {
        "no-faults": None,
        # The last resource (the GPU on the standard platform) is the
        # most-loaded one, so its outage actually displaces jobs.
        "transient-outage": FaultPlan(
            seed=seed,
            outages=(ResourceOutage(n_resources - 1, third, 2.0 * third),),
        ),
        "permanent-outage": FaultPlan(
            seed=seed,
            outages=(ResourceOutage(1, third),),
        ),
        "predictor-faults": FaultPlan(
            seed=seed,
            predictor_faults=(
                PredictorFault("exception", 0.0, third),
                PredictorFault("garbage", 2.0 * third, span + 1.0),
            ),
        ),
        "solver-watchdog": FaultPlan(
            seed=seed,
            solver_faults=(SolverFault("exception", 0.0, 2.0 * third),),
        ),
        # Coverage fractions sized for ~2 expected outage windows across
        # the faultable resources and ~2 predictor fault windows.
        "generated-mix": FaultPlan.generate(
            seed,
            horizon=span + 1.0,
            n_resources=n_resources,
            outage_rate=min(
                1.0, 2.0 * third / ((span + 1.0) * (n_resources - 1))
            ),
            outage_duration=third,
            predictor_fault_rate=min(1.0, 2.0 * third / (span + 1.0)),
            predictor_fault_duration=third,
            spare_resource=n_resources - 1,
        ),
    }


def run_fault_smoke(
    scale: HarnessScale | None = None,
    *,
    group: DeadlineGroup = DeadlineGroup.VT,
    strategies: Sequence[str] = ("heuristic",),
    predictors: Sequence[str | None] = (None, "oracle"),
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> FaultSmokeReport:
    """Run the scenario grid with schedule verification per cell.

    Every simulation runs with ``verify=True`` and record collection and
    hands the scenario's :class:`FaultPlan` (``None`` for ``no-faults``)
    to the verifier, so the fault-aware invariants check the
    degradations the scenario caused.
    """
    scale = scale or HarnessScale(n_traces=2, n_requests=40, master_seed=0)
    platform = standard_platform()
    traces = standard_traces(group, scale)
    report = FaultSmokeReport(group=group, scale=scale, seed=seed)
    for strategy_name in strategies:
        for predictor_name in predictors:
            label = f"{strategy_name}-{predictor_name or 'off'}"
            for index, trace in enumerate(traces):
                plans = _scenario_plans(trace, platform.size, seed)
                for scenario, plan in plans.items():
                    if progress is not None:
                        progress(f"{label} / {scenario} / trace {index}")
                    config = SimulationConfig(
                        verify=True, collect_records=True, fault_plan=plan
                    )
                    simulator = Simulator(
                        platform,
                        resolve_strategy(strategy_name),
                        resolve_predictor(predictor_name)
                        if predictor_name is not None
                        else None,
                        config,
                    )
                    try:
                        result = simulator.run(trace)
                    except VerificationError as exc:
                        report.cells.append(
                            FaultSmokeCell(
                                label=label,
                                scenario=scenario,
                                trace_index=index,
                                ok=False,
                                n_spans=exc.report.n_spans,
                                n_degradations=0,
                                n_evicted=0,
                                violations=tuple(exc.report.violations),
                            )
                        )
                        continue
                    verification = result.verification
                    assert verification is not None  # verify=True
                    report.cells.append(
                        FaultSmokeCell(
                            label=label,
                            scenario=scenario,
                            trace_index=index,
                            ok=verification.ok,
                            n_spans=verification.n_spans,
                            n_degradations=len(result.degradations),
                            n_evicted=len(result.evicted),
                        )
                    )
    return report
