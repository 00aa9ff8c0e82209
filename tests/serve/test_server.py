"""Socket-level behaviour of the live admission daemon.

Each test boots a real :class:`AdmissionServer` on a loopback port in a
background thread and talks to it through :class:`ServeClient` — the
full wire path, not engine internals.
"""

import asyncio
import threading
import time

import pytest

from repro.core.heuristic import HeuristicResourceManager
from repro.model.platform import Platform
from repro.serve.client import ServeClient, fetch_metrics_text
from repro.serve.protocol import AdmitRequest
from repro.serve.server import AdmissionEngine, AdmissionServer, ServeConfig
from repro.serve.smoke import run_smoke
from repro.workload.taskgen import TaskSetConfig, generate_task_set

HOST = "127.0.0.1"


class ServerHarness:
    """Boot one daemon in a thread; join it on exit."""

    def __init__(self, config: ServeConfig, *, strategy: str = "heuristic",
                 predictor: str | None = None, n_tasks: int = 5,
                 fault_plan=None):
        self.platform = Platform.cpu_gpu(n_cpus=2, n_gpus=1)
        self.tasks = generate_task_set(
            self.platform, TaskSetConfig(n_tasks=n_tasks)
        )
        self.config = config
        self.strategy = strategy
        self.predictor = predictor
        self.fault_plan = fault_plan
        self.server: AdmissionServer | None = None
        self._started = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "ServerHarness":
        def boot():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self.server = AdmissionServer(
                self.platform,
                self.strategy,
                self.predictor,
                tasks=self.tasks,
                config=self.config,
                fault_plan=self.fault_plan,
            )
            loop.run_until_complete(self.server.start())
            self._started.set()
            loop.run_until_complete(self.server.serve_until_shutdown())
            loop.close()

        self._thread = threading.Thread(target=boot, daemon=True)
        self._thread.start()
        assert self._started.wait(timeout=30.0), "server failed to start"
        return self

    def __exit__(self, *exc) -> None:
        assert self.server is not None
        try:
            with self.client() as client:
                client.shutdown()
        except (ConnectionError, OSError):
            self.server.request_shutdown()
        assert self._thread is not None
        self._thread.join(timeout=30.0)
        assert not self._thread.is_alive(), "server did not shut down"

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def client(self) -> ServeClient:
        return ServeClient(HOST, self.port)


def replay_config(**kwargs) -> ServeConfig:
    defaults = dict(host=HOST, port=0, mode="replay")
    defaults.update(kwargs)
    return ServeConfig(**defaults)


class TestLifecycle:
    def test_ping_and_clean_shutdown(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                pong = client.ping()
                assert pong["ok"] is True
                assert pong["op"] == "pong"

    def test_admission_roundtrip(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                response = client.admit(
                    "t0", task=0, deadline=1000.0, arrival=0.0, id="r1"
                )
                assert response["ok"] is True
                assert response["status"] == "accepted"
                assert response["job_id"] == 0
                assert response["id"] == "r1"

    def test_stats_reflect_decisions(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                client.admit("t0", task=0, deadline=1000.0, arrival=0.0)
                stats = client.stats()
                assert stats["decisions"] == 1
                tenants = stats["depository"]["tenants"]
                assert tenants[0]["tenant"] == "t0"
                assert tenants[0]["accepted"] == 1


class TestProtocolErrors:
    def test_malformed_frame_gets_structured_error(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                client.send_raw(b"{not json")
                response = client.read_response()
                assert response["ok"] is False
                assert response["error"] == "malformed-frame"
                # The connection survives a bad frame.
                assert client.ping()["ok"] is True

    def test_unknown_op(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                response = client.request({"op": "fly"})
                assert response["ok"] is False
                assert response["error"] == "unknown-op"

    def test_task_outside_catalog(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                response = client.admit(
                    "t0", task=999, deadline=1.0, arrival=0.0
                )
                assert response["ok"] is False
                assert response["error"] == "bad-value"

    def test_replay_requires_declared_arrival(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                response = client.admit("t0", task=0, deadline=1.0)
                assert response["ok"] is False
                assert response["error"] == "missing-field"


class TestBackpressure:
    def test_over_quota_structured_reject(self):
        config = replay_config(tenant_quota=1)
        with ServerHarness(config) as harness:
            with harness.client() as client:
                first = client.admit(
                    "t0", task=0, deadline=10000.0, arrival=0.0
                )
                assert first["status"] == "accepted"
                # The first job is still active (tiny arrival step, huge
                # deadline), so the tenant is at its quota.
                second = client.admit(
                    "t0", task=0, deadline=10000.0, arrival=0.1
                )
                assert second["ok"] is True
                assert second["status"] == "over-quota"
                assert "quota" in second["detail"]
                # Another tenant is unaffected.
                other = client.admit(
                    "t1", task=0, deadline=10000.0, arrival=0.2
                )
                assert other["status"] == "accepted"

    def test_quota_frees_on_completion(self):
        config = replay_config(tenant_quota=1)
        with ServerHarness(config) as harness:
            with harness.client() as client:
                client.admit("t0", task=0, deadline=10000.0, arrival=0.0)
                # Far-future arrival: the first job finishes long before,
                # freeing the quota slot.
                late = client.admit(
                    "t0", task=0, deadline=10000.0, arrival=100000.0
                )
                assert late["status"] == "accepted"


class TestMetricsSurfaces:
    def test_metrics_control_op(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                client.admit("t0", task=0, deadline=1000.0, arrival=0.0)
                snapshot = client.metrics()
                assert snapshot["ok"] is True
                counters = snapshot["metrics"]["counters"]
                assert counters["serve/requests"] == 1
                assert counters["serve/accepted"] == 1

    def test_http_metrics_endpoint(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                client.admit("t0", task=0, deadline=1000.0, arrival=0.0)
            text = fetch_metrics_text(HOST, harness.port)
            assert "repro_serve_requests 1" in text
            assert "# TYPE repro_serve_requests counter" in text
            assert "repro_serve_decision_latency_count" in text

    def test_http_unknown_path_is_404(self):
        import socket

        with ServerHarness(replay_config()) as harness:
            with socket.create_connection((HOST, harness.port), 10) as sock:
                sock.sendall(b"GET /nope HTTP/1.1\r\n\r\n")
                data = sock.recv(65536)
            assert b"404" in data.split(b"\r\n", 1)[0]


class TestSmoke:
    def test_smoke_run_meets_throughput_floor(self):
        report = run_smoke(n_requests=100)
        assert report.requests == 100
        assert report.clean_shutdown is True
        assert report.metrics_lines > 0
        # The acceptance floor: >= 1k admissions/s on the smoke workload.
        assert report.decisions_per_sec >= 1000.0


class TestOversizedFrames:
    def test_oversized_frame_answered_then_closed(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                client.ping()  # healthy first
                huge = (
                    b'{"op": "admit", "tenant": "'
                    + b"x" * 70000
                    + b'", "task": 0, "deadline": 1.0}'
                )
                client.send_raw(huge)
                response = client.read_response()
                assert response["ok"] is False
                assert response["error"] == "frame-too-large"
                # Framing is gone: the server closes the connection.
                with pytest.raises(ConnectionError):
                    client.read_response()

    def test_oversized_first_frame(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                client.send_raw(b"x" * 70000)
                response = client.read_response()
                assert response["error"] == "frame-too-large"


class TestInterleavedOps:
    def test_pipelined_mixed_ops_answer_in_order(self):
        """Admit/control frames interleaved on one connection come back
        strictly in request order (per-connection pipelining)."""
        from repro.serve.protocol import encode_frame

        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                batch = (
                    encode_frame({
                        "op": "admit", "tenant": "t0", "task": 0,
                        "deadline": 1000.0, "arrival": 0.0, "id": "a",
                    })
                    + encode_frame({"op": "ping", "id": "b"})
                    + encode_frame({
                        "op": "admit", "tenant": "t1", "task": 0,
                        "deadline": 1000.0, "arrival": 0.5, "id": "c",
                    })
                    + encode_frame({"op": "stats", "id": "d"})
                )
                client.send_raw(batch)
                ids = [client.read_response()["id"] for _ in range(4)]
                assert ids == ["a", "b", "c", "d"]

    def test_protocol_error_does_not_skew_ordering(self):
        from repro.serve.protocol import encode_frame

        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                batch = (
                    encode_frame({"op": "ping", "id": 1})
                    + b"{broken\n"
                    + encode_frame({"op": "ping", "id": 2})
                )
                client.send_raw(batch)
                first = client.read_response()
                second = client.read_response()
                third = client.read_response()
                assert first["id"] == 1
                assert second["error"] == "malformed-frame"
                assert third["id"] == 2


class TestIdempotency:
    def test_duplicate_returns_original_decision(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                first = client.admit(
                    "t0", task=0, deadline=1000.0, arrival=0.0, idem="k1"
                )
                assert first["status"] == "accepted"
                assert "duplicate" not in first
                again = client.admit(
                    "t0", task=0, deadline=1000.0, arrival=9.0, idem="k1"
                )
                assert again["duplicate"] is True
                assert again["job_id"] == first["job_id"]
                assert again["decision_time"] == first["decision_time"]
                counters = client.metrics()["metrics"]["counters"]
                assert counters["serve/idempotent_hits"] == 1
                # Only one real decision happened.
                assert counters["serve/requests"] == 1

    def test_distinct_keys_decide_independently(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                a = client.admit(
                    "t0", task=0, deadline=1000.0, arrival=0.0, idem="a"
                )
                b = client.admit(
                    "t0", task=0, deadline=1000.0, arrival=1.0, idem="b"
                )
                assert a["job_id"] != b["job_id"]

    def test_cache_eviction_is_lru(self):
        config = replay_config(idempotency_cache=2)
        with ServerHarness(config) as harness:
            with harness.client() as client:
                for i, key in enumerate(["a", "b", "c"]):
                    client.admit(
                        "t0", task=0, deadline=1000.0,
                        arrival=float(i), idem=key,
                    )
                # "a" was evicted: its re-issue is a fresh decision.
                again = client.admit(
                    "t0", task=0, deadline=1000.0, arrival=3.0, idem="a"
                )
                assert "duplicate" not in again


class TestStatsSurface:
    def test_stats_expose_fingerprint(self):
        with ServerHarness(replay_config()) as harness:
            with harness.client() as client:
                before = client.stats()["fingerprint"]
                client.admit("t0", task=0, deadline=1000.0, arrival=0.0)
                after = client.stats()["fingerprint"]
                assert len(before) == 64
                assert before != after

    def test_stats_expose_journal_health(self, tmp_path):
        config = replay_config(
            journal_path=str(tmp_path / "j.ndjson"), journal_fsync=False
        )
        with ServerHarness(config) as harness:
            with harness.client() as client:
                client.admit("t0", task=0, deadline=1000.0, arrival=0.0)
                journal = client.stats()["journal"]
                assert journal["records"] == 2  # intent + outcome
                assert journal["write_errors"] == 0
                assert journal["pending"] == 0


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ServeConfig(mode="warp")

    def test_bad_speed(self):
        with pytest.raises(ValueError, match="speed"):
            ServeConfig(speed=-1.0)

    def test_bad_queue_depth(self):
        with pytest.raises(ValueError, match="queue_depth"):
            ServeConfig(queue_depth=0)

    def test_bad_quota(self):
        with pytest.raises(ValueError, match="tenant_quota"):
            ServeConfig(tenant_quota=0)


class TestArrivalStamp:
    """A frame that declares no arrival is stamped from the platform
    state's logical time in replay mode and from the scaled wall clock
    in live mode; ``stats()["clock"]`` reads the same source."""

    @staticmethod
    def engine(config: ServeConfig) -> AdmissionEngine:
        platform = Platform.cpu_gpu(n_cpus=2, n_gpus=1)
        tasks = generate_task_set(platform, TaskSetConfig(n_tasks=5))
        return AdmissionEngine(
            platform, HeuristicResourceManager(), None, tasks, config
        )

    def test_replay_stamps_logical_time(self):
        engine = self.engine(replay_config())
        engine.decide(
            AdmitRequest(tenant="t0", task=0, deadline=1e6, arrival=5.0)
        )
        response = engine.decide(
            AdmitRequest(tenant="t0", task=1, deadline=1e6)
        )
        assert response.arrival == engine.state.time == 5.0
        assert engine.stats()["clock"] == 5.0

    def test_live_stamps_scaled_wall_clock(self):
        speed = 1000.0
        before = time.perf_counter()
        engine = self.engine(ServeConfig(mode="live", speed=speed))
        time.sleep(0.01)
        response = engine.decide(
            AdmitRequest(tenant="t0", task=0, deadline=1e6)
        )
        elapsed = time.perf_counter() - before
        assert 0.01 * speed <= response.arrival <= elapsed * speed
        assert engine.state.time == response.arrival
        assert engine.stats()["clock"] >= response.arrival
