"""Sim/live parity: one trace, two front ends, identical decisions.

The simulator and the live daemon run the same RM activation
(:class:`~repro.sim.step.AdmissionStep`), so parity holds by
construction; these tests smoke-check it end to end.  They push the
same trace through

* ``simulate()`` (the historical, golden-pinned path),
* a **replay**-mode server (VirtualClock) over the real socket protocol,
* a **live**-mode server (compressed-time WallClock) with declared
  arrivals,

and require the accept/reject sequence to match exactly — including with
an online predictor in the loop, whose forecasts must see identical
prefixes through either front end, with a prediction overhead, and with
faulty predictors whose degradations must be counted alike.
"""

import asyncio
import threading
from dataclasses import replace

import pytest

from repro.model.platform import Platform
from repro.model.request import PredictedRequest
from repro.predict.base import Predictor
from repro.serve.client import ServeClient
from repro.serve.server import AdmissionServer, ServeConfig
from repro.sim.simulator import SimulationConfig, simulate
from repro.workload.taskgen import TaskSetConfig, generate_task_set
from repro.workload.tracegen import TraceConfig, generate_trace

HOST = "127.0.0.1"
N_REQUESTS = 60


@pytest.fixture(scope="module")
def workload():
    platform = Platform.cpu_gpu(n_cpus=2, n_gpus=1)
    tasks = generate_task_set(platform, TaskSetConfig(n_tasks=10))
    trace = generate_trace(
        tasks, TraceConfig(n_requests=N_REQUESTS), seed=3
    )
    return platform, tasks, trace


def serve_session(
    platform, tasks, trace, *, config: ServeConfig, predictor=None
) -> tuple[list[dict], AdmissionServer]:
    """Replay ``trace`` through a real server; the responses in order
    and the (shut down) server."""
    server_box: list[AdmissionServer] = []
    started = threading.Event()

    def boot():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = AdmissionServer(
            platform, "heuristic", predictor, tasks=tasks, config=config
        )
        server_box.append(server)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_until_complete(server.serve_until_shutdown())
        loop.close()

    thread = threading.Thread(target=boot, daemon=True)
    thread.start()
    assert started.wait(timeout=30.0)
    server = server_box[0]
    assert server.port is not None

    responses = []
    with ServeClient(HOST, server.port) as client:
        for request in trace.requests:
            response = client.admit(
                "t0",
                task=request.type_id,
                deadline=request.deadline,
                arrival=request.arrival,
                final=(request.index == len(trace.requests) - 1),
            )
            assert response["ok"] is True, response
            responses.append(response)
        client.shutdown()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    return responses, server


def serve_decisions(
    platform, tasks, trace, *, config: ServeConfig, predictor=None
) -> list[str]:
    """Replay ``trace`` through a real server; statuses in order."""
    responses, _ = serve_session(
        platform, tasks, trace, config=config, predictor=predictor
    )
    return [response["status"] for response in responses]


def statuses_of(result, n_requests: int) -> list[str]:
    statuses = ["rejected"] * n_requests
    for index in result.accepted:
        statuses[index] = "accepted"
    return statuses


def simulated_decisions(platform, trace, *, predictor=None) -> list[str]:
    result = simulate(
        trace, platform, "heuristic", predictor, SimulationConfig()
    )
    return statuses_of(result, len(trace.requests))


def quiet_replay(**overrides) -> ServeConfig:
    """A replay session with the reprovision trigger quiesced: it is a
    live-service extension the simulator doesn't have."""
    return ServeConfig(
        host=HOST, port=0, mode="replay", error_threshold=float("inf"),
        **overrides,
    )


class _RepeatLast(Predictor):
    """A causal toy forecaster: the next request repeats the current
    one a little later (valid through a trace and a live log alike)."""

    name = "repeat-last"

    def predict(self, trace, index: int) -> PredictedRequest | None:
        current = trace[index]
        return PredictedRequest(
            arrival=current.arrival + 1.0,
            type_id=current.type_id,
            deadline=current.deadline,
        )


class _RaisingEveryOther(_RepeatLast):
    name = "raising-every-other"

    def predict(self, trace, index: int) -> PredictedRequest | None:
        if index % 2:
            raise RuntimeError("model weights corrupted")
        return super().predict(trace, index)


class _OutOfRangeEveryOther(_RepeatLast):
    name = "out-of-range-every-other"

    def predict(self, trace, index: int) -> PredictedRequest | None:
        prediction = super().predict(trace, index)
        if index % 2 and prediction is not None:
            return replace(prediction, type_id=len(trace.tasks))
        return prediction


class TestReplayParity:
    def test_replay_matches_simulate(self, workload):
        platform, tasks, trace = workload
        simulated = simulated_decisions(platform, trace)
        served = serve_decisions(
            platform, tasks, trace,
            config=ServeConfig(host=HOST, port=0, mode="replay"),
        )
        assert served == simulated
        assert "rejected" in simulated  # the workload must exercise both

    def test_replay_matches_simulate_with_online_predictor(self, workload):
        self.check_online_predictor_parity(workload, overhead=0.0)

    def test_replay_matches_simulate_with_prediction_overhead(self, workload):
        # 2.0 is over half the mean inter-arrival gap, so some decisions
        # also finish after the next request arrived.
        self.check_online_predictor_parity(workload, overhead=2.0)

    @staticmethod
    def check_online_predictor_parity(workload, *, overhead: float):
        platform, tasks, trace = workload
        from repro.registry import resolve_predictor

        result = simulate(
            trace, platform, "heuristic", resolve_predictor("learned"),
            SimulationConfig(
                prediction_overhead=overhead, collect_records=True
            ),
        )
        responses, _ = serve_session(
            platform, tasks, trace,
            config=quiet_replay(prediction_overhead=overhead),
            predictor=resolve_predictor("learned"),
        )
        assert [r["status"] for r in responses] == statuses_of(
            result, len(trace.requests)
        )
        assert [r["decision_time"] for r in responses] == [
            record.decision_time for record in result.records
        ]
        delayed = [r["decision_time"] > r["arrival"] for r in responses]
        assert any(delayed) == (overhead > 0)

    @pytest.mark.parametrize(
        ("predictor", "kind"),
        [
            (_RaisingEveryOther, "predictor-exception"),
            (_OutOfRangeEveryOther, "predictor-garbage"),
        ],
    )
    def test_faulty_predictor_degrades_identically(
        self, workload, predictor, kind
    ):
        platform, tasks, trace = workload
        result = simulate(
            trace, platform, "heuristic", predictor(), SimulationConfig()
        )
        responses, server = serve_session(
            platform, tasks, trace, config=quiet_replay(),
            predictor=predictor(),
        )
        assert [r["status"] for r in responses] == statuses_of(
            result, len(trace.requests)
        )
        degraded = [e for e in result.degradations if e.kind == kind]
        assert len(degraded) == len(trace.requests) // 2
        assert len(degraded) == len(result.degradations)
        counters = server.engine.metrics_snapshot().counters
        assert counters["serve/degradations"] == len(degraded)
        # the valid half of the forecasts still reaches the RM
        assert result.predictions_used > 0
        assert sum(r.get("used_prediction", False) for r in responses) == (
            result.predictions_used
        )


class TestLiveParity:
    def test_compressed_wallclock_matches_replay(self, workload):
        """Live mode with declared arrivals decides identically: the
        WallClock observes, the declared arrivals drive decisions."""
        platform, tasks, trace = workload
        simulated = simulated_decisions(platform, trace)
        served = serve_decisions(
            platform, tasks, trace,
            config=ServeConfig(host=HOST, port=0, mode="live", speed=1e6),
        )
        assert served == simulated
