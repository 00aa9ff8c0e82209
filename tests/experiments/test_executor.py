"""Tests for the experiment matrix's worker-count parity.

The core guarantee under test: ``run_matrix(..., parallel=N)`` returns
aggregates *bit-identical* to the in-process path (same floats, same
list order, same dict order), and a failing cell aborts the matrix
with an error naming it on every path.
"""

from __future__ import annotations

import pytest

from repro.core.heuristic import HeuristicResourceManager
from repro.experiments.common import standard_platform, standard_traces
from repro.experiments.config import HarnessScale
from repro.experiments.fig2_rejection import run_prediction_impact
from repro.experiments.motivational import run_motivational
from repro.experiments.runner import RunSpec, run_matrix
from repro.workload.tracegen import DeadlineGroup

TINY = HarnessScale(n_traces=3, n_requests=20, master_seed=3)


class ExplodingStrategy(HeuristicResourceManager):
    """Raises on every solve — a deterministic in-worker failure."""

    def solve(self, context):
        raise RuntimeError("injected failure")


@pytest.fixture(scope="module")
def matrix():
    platform = standard_platform()
    traces = standard_traces(DeadlineGroup.VT, TINY)
    specs = [
        RunSpec.from_names("h-off", strategy="heuristic"),
        RunSpec.from_names("h-on", strategy="heuristic", predictor="oracle"),
        RunSpec.from_names(
            "h-noise",
            strategy="heuristic",
            predictor="type-noise",
            predictor_kwargs={"accuracy": 0.5, "seed": 11},
        ),
    ]
    return platform, traces, specs


class TestParity:
    def test_parallel_identical_to_serial(self, matrix):
        platform, traces, specs = matrix
        serial = run_matrix(traces, platform, specs)
        par = run_matrix(traces, platform, specs, parallel=2)
        assert list(par) == list(serial)  # same labels, same dict order
        for label in serial:
            assert (
                par[label].rejection_percentages
                == serial[label].rejection_percentages
            )
            assert (
                par[label].normalized_energies
                == serial[label].normalized_energies
            )

    def test_bare_int_jobs_accepted(self, matrix):
        platform, traces, specs = matrix
        serial = run_matrix(traces, platform, specs)
        par = run_matrix(traces, platform, specs, parallel=2)
        for label in serial:
            assert (
                par[label].rejection_percentages
                == serial[label].rejection_percentages
            )

    def test_keep_results_parity(self, matrix):
        platform, traces, specs = matrix
        serial = run_matrix(traces, platform, specs[:1], keep_results=True)
        par = run_matrix(
            traces,
            platform,
            specs[:1],
            keep_results=True,
            parallel=2,
        )
        assert len(par["h-off"].results) == len(traces)
        for mine, theirs in zip(
            par["h-off"].results, serial["h-off"].results, strict=True
        ):
            assert mine.summary() == theirs.summary()

    def test_fig2_harness_parity(self):
        serial = run_prediction_impact(
            DeadlineGroup.VT, TINY, strategies=("heuristic",)
        )
        par = run_prediction_impact(
            DeadlineGroup.VT,
            TINY,
            strategies=("heuristic",),
            parallel=2,
        )
        for label, aggregate in serial.aggregates.items():
            assert (
                par.aggregates[label].rejection_percentages
                == aggregate.rejection_percentages
            )
            assert (
                par.aggregates[label].normalized_energies
                == aggregate.normalized_energies
            )

    def test_motivational_parallel(self):
        assert run_motivational(parallel=2).matches_paper()


class TestObservability:
    def test_cell_stats_recorded(self, matrix):
        platform, traces, specs = matrix
        for parallel in (None, 2):
            aggregates = run_matrix(
                traces, platform, specs[:1], parallel=parallel
            )
            stats = aggregates["h-off"].cell_stats
            assert [s.trace_index for s in stats] == list(range(len(traces)))
            assert all(s.wall_time > 0 for s in stats)
            assert all(s.solver_calls > 0 for s in stats)
            assert aggregates["h-off"].total_solver_calls == sum(
                s.solver_calls for s in stats
            )
            assert aggregates["h-off"].total_wall_time > 0

    def test_progress_fires_once_per_cell(self, matrix):
        platform, traces, specs = matrix
        calls = []
        run_matrix(
            traces,
            platform,
            specs,
            progress=lambda label, i, n: calls.append((label, i, n)),
            parallel=2,
        )
        assert len(calls) == len(specs) * len(traces)
        assert set(calls) == {
            (spec.label, i, len(traces))
            for spec in specs
            for i in range(len(traces))
        }


class TestRobustness:
    def test_cell_exception_names_the_cell(self, matrix):
        platform, traces, _ = matrix
        specs = [
            RunSpec.from_names("good", strategy="heuristic"),
            RunSpec(label="boom", strategy=ExplodingStrategy),
        ]
        for parallel in (None, 2):
            with pytest.raises(RuntimeError) as info:
                run_matrix(traces, platform, specs, parallel=parallel)
            message = str(info.value)
            assert "boom" in message
            assert "trace 0" in message
            assert "injected failure" in message
        with pytest.raises(RuntimeError) as info:
            run_matrix(traces, platform, specs)
        assert isinstance(info.value.__cause__, RuntimeError)
        assert str(info.value.__cause__) == "injected failure"
        with pytest.raises(ValueError, match="parallel"):
            run_matrix(traces, platform, specs, parallel=-1)

    def test_unpicklable_spec_rejected_with_label(self, matrix):
        platform, traces, _ = matrix
        specs = [
            RunSpec(
                # The unpicklable factory IS the scenario under test.
                label="closure", strategy=lambda: HeuristicResourceManager()  # noqa: RPR004
            )
        ]
        with pytest.raises(ValueError, match="closure.*from_names"):
            run_matrix(traces, platform, specs, parallel=2)

    def test_serial_path_accepts_unpicklable_specs(self, matrix):
        platform, traces, _ = matrix
        specs = [
            RunSpec(
                # The unpicklable factory IS the scenario under test.
                label="closure", strategy=lambda: HeuristicResourceManager()  # noqa: RPR004
            )
        ]
        aggregates = run_matrix(traces[:1], platform, specs)
        assert aggregates["closure"].n_traces == 1


class TestRunSpecFromNames:
    def test_unknown_names_fail_eagerly(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            RunSpec.from_names("x", strategy="quantum")
        with pytest.raises(ValueError, match="unknown predictor"):
            RunSpec.from_names("x", strategy="milp", predictor="psychic")

    def test_kwargs_without_predictor_rejected(self):
        with pytest.raises(ValueError, match="predictor_kwargs"):
            RunSpec.from_names(
                "x", strategy="milp", predictor_kwargs={"seed": 1}
            )

    def test_specs_pickle(self):
        import pickle

        spec = RunSpec.from_names(
            "x",
            strategy="milp",
            predictor="arrival-noise",
            predictor_kwargs={"accuracy": 0.75, "seed": 4},
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.label == spec.label
        assert type(clone.strategy()) is type(spec.strategy())
        assert clone.predictor().accuracy == 0.75
