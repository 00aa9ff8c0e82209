"""End-to-end tracing: determinism, zero-cost default, executor parity.

The contract under test (DESIGN.md §11): tracing is an *observer* —
enabling it must not change any simulation outcome; its event stream is
a pure function of (trace, spec, seed); and the metrics fold across the
parallel executor is independent of the jobs count and chunking.
"""

import numpy as np
import pytest

from repro.model.platform import Platform
from repro.obs import CollectingTracer, TraceOptions, event_stream_digest
from repro.obs.events import NULL_TRACER
from repro.obs.export import (
    chrome_trace,
    events_to_jsonl,
    validate_chrome_trace,
)
from repro.predict.base import Predictor
from repro.registry import resolve_predictor, resolve_strategy
from repro.sim.simulator import SimulationConfig, Simulator, simulate
from repro.workload.taskgen import TaskSetConfig, generate_task_set
from repro.workload.tracegen import DeadlineGroup, TraceConfig, generate_trace


@pytest.fixture
def trace(platform):
    tasks = generate_task_set(
        platform, TaskSetConfig(n_tasks=6), rng=np.random.default_rng(11)
    )
    return generate_trace(
        tasks,
        TraceConfig(group=DeadlineGroup.VT, n_requests=25),
        rng=np.random.default_rng(12),
        seed=11,
    )


def _traced_config(**kwargs) -> SimulationConfig:
    return SimulationConfig(tracer=TraceOptions(), **kwargs)


class TestDeterminism:
    def test_same_seed_same_spec_byte_identical_jsonl(self, platform, trace):
        streams = []
        for _ in range(2):
            result = simulate(
                trace, platform, "heuristic", "oracle", _traced_config()
            )
            streams.append(events_to_jsonl(result.events))
        assert streams[0] == streams[1]
        assert len(streams[0]) > 0

    def test_seq_contiguous_and_decision_times_monotonic(
        self, platform, trace
    ):
        """seq is the total order; *decision* events are time-ordered.

        Execution events (job-complete, migration-settle) are stamped as
        each resource is advanced in turn, so they are time-ordered per
        resource lane but not globally — the Chrome exporter relies on
        ts, not order, so this is fine.
        """
        result = simulate(
            trace, platform, "heuristic", "oracle", _traced_config()
        )
        assert [e.seq for e in result.events] == list(range(len(result.events)))
        decision_kinds = {
            "sim-start", "admission-accept", "admission-reject",
            "solver-call", "predictor-call", "sim-end",
        }
        decision_times = [
            e.time for e in result.events if e.kind in decision_kinds
        ]
        assert all(
            b >= a
            for a, b in zip(decision_times, decision_times[1:], strict=False)
        )
        end_time = result.events[-1].time
        assert all(0.0 <= e.time <= end_time for e in result.events)

    def test_chrome_trace_from_real_run_validates(self, platform, trace):
        result = simulate(
            trace, platform, "heuristic", "oracle",
            _traced_config(collect_execution_log=True),
        )
        payload = chrome_trace(
            result.events, result.execution_log, n_resources=platform.size
        )
        assert validate_chrome_trace(payload) == []
        assert len(result.execution_log) > 0


class TestObserverNeutrality:
    def test_traced_and_untraced_summaries_identical(self, platform, trace):
        traced = simulate(
            trace, platform, "heuristic", "oracle", _traced_config()
        )
        untraced = simulate(
            trace, platform, "heuristic", "oracle", SimulationConfig()
        )
        assert traced.summary() == untraced.summary()
        assert untraced.events == []
        assert untraced.metrics is None

    def test_tracer_restored_after_traced_run(self, platform, trace):
        strategy = resolve_strategy("heuristic")
        predictor = resolve_predictor("oracle")
        simulator = Simulator(
            platform, strategy, predictor, _traced_config()
        )
        simulator.run(trace)
        assert strategy.tracer is NULL_TRACER

    def test_tracer_restored_even_when_run_raises(self, platform, trace):
        class Boom(Exception):
            pass

        strategy = resolve_strategy("heuristic")
        original_solve = strategy.solve

        def exploding_solve(context):
            raise Boom()

        strategy.solve = exploding_solve
        simulator = Simulator(
            platform, strategy, resolve_predictor("oracle"), _traced_config()
        )
        with pytest.raises(Boom):
            simulator.run(trace)
        assert strategy.tracer is NULL_TRACER
        strategy.solve = original_solve

    def test_events_only_and_metrics_only_options(self, platform, trace):
        events_only = simulate(
            trace, platform, "heuristic", None,
            SimulationConfig(tracer=TraceOptions(metrics=False)),
        )
        assert events_only.events and events_only.metrics is None
        metrics_only = simulate(
            trace, platform, "heuristic", None,
            SimulationConfig(tracer=TraceOptions(events=False)),
        )
        assert metrics_only.events == [] and metrics_only.metrics is not None


class TestEventContent:
    def test_admission_events_match_result_lists(self, platform, trace):
        result = simulate(
            trace, platform, "heuristic", "oracle", _traced_config()
        )
        accepts = [
            e.request_index for e in result.events
            if e.kind == "admission-accept"
        ]
        rejects = [
            e.request_index for e in result.events
            if e.kind == "admission-reject"
        ]
        assert accepts == result.accepted
        assert rejects == result.rejected

    def test_run_is_bracketed_by_start_and_end(self, platform, trace):
        result = simulate(
            trace, platform, "heuristic", None, _traced_config()
        )
        assert result.events[0].kind == "sim-start"
        assert result.events[-1].kind == "sim-end"

    def test_solver_calls_counted_and_walled(self, platform, trace):
        result = simulate(
            trace, platform, "heuristic", "oracle", _traced_config()
        )
        solver_events = [
            e for e in result.events if e.kind == "solver-call"
        ]
        assert len(solver_events) == result.solver_calls_total
        assert all(e.wall_time is not None for e in solver_events)

    def test_predictor_call_events_when_predicting(self, platform, trace):
        predicted = simulate(
            trace, platform, "heuristic", "oracle", _traced_config()
        )
        calls = [
            e for e in predicted.events if e.kind == "predictor-call"
        ]
        assert len(calls) == len(trace)
        unpredicted = simulate(
            trace, platform, "heuristic", None, _traced_config()
        )
        assert not any(
            e.kind == "predictor-call" for e in unpredicted.events
        )

    def test_milp_strategy_emits_milp_solve(self, small_platform):
        tasks = generate_task_set(
            small_platform,
            TaskSetConfig(n_tasks=4),
            rng=np.random.default_rng(5),
        )
        small_trace = generate_trace(
            tasks,
            TraceConfig(group=DeadlineGroup.LT, n_requests=6),
            rng=np.random.default_rng(6),
            seed=5,
        )
        result = simulate(
            small_trace, small_platform, "milp", None, _traced_config()
        )
        assert any(e.kind == "milp-solve" for e in result.events)

    def test_heuristic_place_covers_every_admitted_request(
        self, platform, trace
    ):
        result = simulate(
            trace, platform, "heuristic", None, _traced_config()
        )
        placed_jobs = {
            e.job_id for e in result.events if e.kind == "heuristic-place"
        }
        assert set(result.accepted) <= placed_jobs

    def test_job_complete_events_cover_non_evicted_accepts(
        self, platform, trace
    ):
        result = simulate(
            trace, platform, "heuristic", None, _traced_config()
        )
        completed = {
            e.job_id for e in result.events if e.kind == "job-complete"
        }
        assert completed == set(result.accepted) - set(result.evicted)


class _ExplodingPredictor(Predictor):
    """A predictor that always dies — exercises graceful degradation."""

    name = "exploding"

    def predict(self, trace, index):
        raise RuntimeError("predictor exploded")


class TestDegradationPassthrough:
    def test_degradations_mirrored_as_events(self, platform, trace):
        config = _traced_config()
        result = simulate(
            trace, platform, "heuristic", _ExplodingPredictor(), config
        )
        degradation_events = [
            e for e in result.events if e.kind == "degradation"
        ]
        assert len(result.degradations) == len(trace)
        assert len(degradation_events) == len(result.degradations)
        for event, degradation in zip(
            degradation_events, result.degradations, strict=True
        ):
            assert event.detail == degradation.kind
            assert event.time == degradation.time
            assert event.request_index == degradation.request_index

    def test_degradations_counted_in_metrics(self, platform, trace):
        result = simulate(
            trace, platform, "heuristic", _ExplodingPredictor(),
            _traced_config(),
        )
        assert result.metrics.counter("sim/degradations") == len(
            result.degradations
        )


class TestMetricsContent:
    def test_headline_counters_match_result(self, platform, trace):
        result = simulate(
            trace, platform, "heuristic", "oracle", _traced_config()
        )
        metrics = result.metrics
        assert metrics.counter("sim/requests") == result.n_requests
        assert metrics.counter("sim/accepted") == result.n_accepted
        assert metrics.counter("sim/rejected") == result.n_rejected
        assert metrics.counter("solver/calls") == result.solver_calls_total
        assert metrics.counter("energy/total") == result.total_energy
        assert metrics.histograms["sim/context_size"].n == result.n_requests

    def test_deterministic_part_stable_across_runs(self, platform, trace):
        first = simulate(
            trace, platform, "heuristic", "oracle", _traced_config()
        )
        second = simulate(
            trace, platform, "heuristic", "oracle", _traced_config()
        )
        assert first.metrics.deterministic() == second.metrics.deterministic()


class TestExecutorParity:
    def _specs(self):
        from repro.experiments.runner import RunSpec

        config = _traced_config()
        return [
            RunSpec.from_names("h+o", "heuristic", "oracle", sim_config=config),
            RunSpec.from_names("h", "heuristic", sim_config=config),
        ]

    def _traces(self):
        from repro.experiments.common import standard_traces
        from repro.experiments.config import HarnessScale

        return standard_traces(
            DeadlineGroup.VT,
            HarnessScale(n_traces=3, n_requests=15, master_seed=2),
        )

    def test_digests_identical_across_jobs_counts(self, platform):
        from repro.experiments.runner import run_matrix

        traces = self._traces()
        specs = self._specs()
        jobs1 = run_matrix(
            traces, platform, specs, parallel=1, keep_results=True
        )
        jobs4 = run_matrix(
            traces, platform, specs, parallel=4, keep_results=True
        )
        for label in ("h+o", "h"):
            digests1 = [
                event_stream_digest(r.events) for r in jobs1[label].results
            ]
            digests4 = [
                event_stream_digest(r.events) for r in jobs4[label].results
            ]
            assert digests1 == digests4
            assert len(set(digests1)) == len(digests1)  # distinct traces

    def test_merged_metrics_identical_serial_vs_parallel(self, platform):
        from repro.experiments.runner import run_matrix

        traces = self._traces()
        specs = self._specs()
        serial = run_matrix(traces, platform, specs)
        parallel = run_matrix(traces, platform, specs, parallel=4)
        for label in ("h+o", "h"):
            assert serial[label].metrics.deterministic() == (
                parallel[label].metrics.deterministic()
            )

    def test_checkpoint_resume_reproduces_metrics(self, platform, tmp_path):
        from repro.experiments.runner import run_matrix

        traces = self._traces()
        specs = self._specs()
        journal = str(tmp_path / "journal.jsonl")
        first = run_matrix(
            traces, platform, specs, parallel=2, checkpoint=journal
        )
        resumed = run_matrix(
            traces, platform, specs, parallel=2, checkpoint=journal
        )
        for label in ("h+o", "h"):
            # Bit-identical including the journaled wall gauges.
            assert first[label].metrics == resumed[label].metrics

    def test_aggregate_metrics_none_without_tracing(self, platform):
        from repro.experiments.runner import RunSpec, run_matrix

        traces = self._traces()
        specs = [RunSpec.from_names("plain", "heuristic")]
        aggregates = run_matrix(traces, platform, specs)
        assert aggregates["plain"].metrics is None
