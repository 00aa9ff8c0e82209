"""The verified smoke grid (``repro faults --smoke``): the no-fault
scenario and the fault scenarios, every cell re-checked by the
schedule-invariant verifier."""

from __future__ import annotations

from repro.analysis.invariants import Violation
from repro.experiments.config import HarnessScale
from repro.faults.smoke import (
    FaultSmokeCell,
    FaultSmokeReport,
    run_fault_smoke,
)
from repro.workload.tracegen import DeadlineGroup

SMALL = HarnessScale(n_traces=1, n_requests=15, master_seed=0)

SCENARIOS = (
    "no-faults",
    "transient-outage",
    "permanent-outage",
    "predictor-faults",
    "solver-watchdog",
    "generated-mix",
)


class TestVerifiedSmoke:
    def test_grid_is_clean_and_complete(self):
        report = run_fault_smoke(
            SMALL, strategies=("heuristic",), predictors=(None, "oracle")
        )
        assert report.ok
        # 1 strategy x 2 predictors x 1 trace x 6 scenarios
        assert len(report.cells) == 2 * len(SCENARIOS)
        assert all(cell.n_spans > 0 for cell in report.cells)
        assert report.n_violations == 0

    def test_progress_callback_fires(self):
        seen: list[str] = []
        run_fault_smoke(
            SMALL, strategies=("heuristic",), predictors=(None,),
            progress=seen.append,
        )
        assert seen == [
            f"heuristic-off / {scenario} / trace 0" for scenario in SCENARIOS
        ]

    def test_render_lists_every_cell(self):
        report = run_fault_smoke(
            SMALL, strategies=("heuristic",), predictors=(None,)
        )
        text = report.render()
        assert "OK" in text
        for scenario in SCENARIOS:
            assert f"heuristic-off / {scenario} / trace 0" in text

    def test_dirty_cell_renders_violations(self):
        report = FaultSmokeReport(group=DeadlineGroup.VT, scale=SMALL, seed=0)
        report.cells.append(
            FaultSmokeCell(
                label="x",
                scenario="no-faults",
                trace_index=0,
                ok=False,
                n_spans=3,
                n_degradations=0,
                n_evicted=0,
                violations=(Violation("overlap", "boom"),),
            )
        )
        assert not report.ok
        assert report.n_violations == 1
        assert "overlap: boom" in report.render()

    def test_every_configuration_runs_one_clean_no_fault_cell_first(self):
        scale = HarnessScale(n_traces=2, n_requests=15, master_seed=0)
        strategies = ("heuristic", "milp")
        predictors = (None, "oracle")
        report = run_fault_smoke(
            scale, strategies=strategies, predictors=predictors
        )
        scenarios: dict[tuple[str, int], list[str]] = {}
        for cell in report.cells:
            scenarios.setdefault((cell.label, cell.trace_index), []).append(
                cell.scenario
            )
        assert sorted(scenarios) == sorted(
            (f"{strategy}-{predictor or 'off'}", index)
            for strategy in strategies
            for predictor in predictors
            for index in range(scale.n_traces)
        )
        for listed in scenarios.values():
            assert listed[0] == "no-faults"
            assert listed.count("no-faults") == 1
        clean = [c for c in report.cells if c.scenario == "no-faults"]
        assert len(clean) == len(scenarios)
        for cell in clean:
            assert cell.ok
            assert cell.n_spans > 0
            assert cell.n_degradations == 0
            assert cell.n_evicted == 0
