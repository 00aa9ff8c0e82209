"""The live-service workload: an AdmissionServer subprocess over loopback.

This process is the load generator: one connection, one reader thread.
A session replays one seeded VT trace with declared arrivals (replay
mode, so every decision is deterministic) in two phases:

* paced: an open loop sending ``rate`` admits per second whatever the
  replies; each latency is timed from the request's *scheduled* send
  time, so a stall also charges the requests queued behind it; the
  generator's own lateness is reported (traced) or checked (untraced);
* burst: the rest of the trace in ``BURSTS`` pipelined bursts, each
  written at once.  The decision rate is all burst responses over the
  bursts' wall time (first send to last response).  Each burst's time,
  less that of the reference loops the server process timed between its
  decisions (``serve_launcher.SpeedProbe``), is scaled to the reference
  host speed those loops give (:func:`perfbench.common.speed_of`).

The paced rate sits well below capacity so that short host stalls (CPU
steal on a shared machine) do not build a queue that swamps the
percentiles; the bursts measure capacity.  The paced latency is not
scaled: about half of it is wake-ups and loopback I/O between two mostly
idle processes, and no reference loop (timed in the generator, in the
server between paced decisions, or in the bursts) tracked it; each
scaling spread it more between seeds than it spread raw.

The server takes one task set as its catalog, and the decision cost
depends on it; the sims average over a task set per trace, but here one
seeded task set spread the decision rate by about a sixth between seeds.
So the task set is fixed (``SERVE_CATALOG_SEED``) and ``--seed`` draws
the arrivals over it, with the Sec. 5.1 trace generator.

Set-up is trace generation plus server boot until the port is announced,
done ``BOOTS`` times for a median.  The checks: every request gets
exactly one ``ok`` accept/reject response, and the accept/reject
sequence and final energy equal those of an in-process
``AdmissionEngine`` fed the same frames.  A traced run also drives an
untraced session first, for the tracing overhead and to check that
tracing changes no decision.
"""

from __future__ import annotations

import json
import select
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from perfbench.common import Outcome, percentile
from perfbench.serve_launcher import service_config
from perfbench.spans import (
    END,
    NAME,
    PARENT,
    RID,
    START,
    by_layer,
    layer_metrics,
    nesting_errors,
    read_spans,
)
from perfbench.workloads import SERVE_CATALOG_SEED, Workload

__all__ = ["run"]

BOOTS = 5
#: The burst phase is split into this many pipelined bursts.
BURSTS = 8
HOST = "127.0.0.1"
TENANT = "t0"
TIMEOUT = 120.0
#: Head start between connecting and the first paced send.
LEAD_IN = 0.05
#: Clock resolution allowed when checking server time against latency.
SLACK = 1e-4
#: The paced phase is flagged when the sender's p99 lateness exceeds
#: this share of the send interval: the load was then not the stated one.
LAG_LIMIT = 1.0


class Server:
    """One ``serve_launcher.py`` subprocess."""

    def __init__(
        self,
        workload: Workload,
        trace_file: Path,
        work: Path,
        tag: str,
        spans: Path | None = None,
    ) -> None:
        self.summary_path = work / f"{tag}-summary.json"
        command = [
            sys.executable,
            str(Path(__file__).with_name("serve_launcher.py")),
            "--trace-file", str(trace_file),
            "--journal", str(work / f"{tag}.journal"),
            "--strategy", workload.strategy,
            "--predictor", workload.predictor,
            "--summary", str(self.summary_path),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.port = self._announced_port()
        except BaseException:
            self.kill()
            raise

    def _announced_port(self) -> int:
        stdout = self.process.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], TIMEOUT)
        line = stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            raise RuntimeError(f"server did not announce a port: {line!r}")
        return int(line.split()[1])

    def start_probe(self) -> None:
        """Start timing reference loops inside the server process."""
        assert self.process.stdin is not None
        self.process.stdin.write("start\n")
        self.process.stdin.flush()

    def stop_probe(self) -> tuple[float, float]:
        """Stop the probe; the server's host speed while it ran and the
        time its reference loops took."""
        stdin, stdout = self.process.stdin, self.process.stdout
        assert stdin is not None and stdout is not None
        stdin.write("speed\n")
        stdin.flush()
        ready, _, _ = select.select([stdout], [], [], TIMEOUT)
        line = stdout.readline() if ready else ""
        if not line.startswith("SPEED "):
            raise RuntimeError(f"server did not report its speed: {line!r}")
        _, speed, spent = line.split()
        return float(speed), float(spent)

    def finish(self) -> dict:
        """Wait for the exit a ``shutdown`` op started; the summary."""
        try:
            code = self.process.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not exit after shutdown") from None
        self._close_pipes()
        if code != 0:
            raise RuntimeError(f"server exited with status {code}")
        return json.loads(self.summary_path.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                pipe.close()


def _shutdown(port: int) -> None:
    with socket.create_connection((HOST, port), timeout=TIMEOUT) as sock:
        sock.sendall(b'{"op":"shutdown"}\n')
        sock.makefile("rb").readline()


class Reader(threading.Thread):
    """Reads response lines and stamps each on arrival."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(name="perfbench-reader", daemon=True)
        self._file = sock.makefile("rb")
        self.stamps: list[float] = []
        self.lines: list[bytes] = []
        self._closed = False
        self._ready = threading.Condition()

    def run(self) -> None:
        try:
            for line in self._file:
                stamp = perf_counter()
                with self._ready:
                    self.stamps.append(stamp)
                    self.lines.append(line)
                    self._ready.notify()
        except OSError:
            pass
        finally:
            with self._ready:
                self._closed = True
                self._ready.notify()

    def wait_for(self, count: int) -> None:
        with self._ready:
            self._ready.wait_for(
                lambda: len(self.lines) >= count or self._closed, TIMEOUT
            )
            if len(self.lines) < count:
                raise RuntimeError(
                    f"{len(self.lines)} of {count} responses arrived"
                )


@dataclass
class Session:
    """One driven session and what the server reported."""

    due: list[float]
    lags: list[float]
    stamps: list[float]
    payloads: list[dict]
    burst_rate: float  # at the reference host speed
    summary: dict


def _frames(trace: object) -> list[bytes]:
    from repro.serve.protocol import encode_frame

    requests = trace.requests  # type: ignore[attr-defined]
    return [
        encode_frame(
            {
                "op": "admit",
                "tenant": TENANT,
                "task": request.type_id,
                "deadline": request.deadline,
                "arrival": request.arrival,
                "id": request.index,
                "final": request.index == len(requests) - 1,
            }
        )
        for request in requests
    ]


def _drive(server: Server, frames: list[bytes], paced: int, rate: float) -> Session:
    """Paced phase, burst phase, metrics op, shutdown op."""
    total = len(frames)
    due: list[float] = []
    lags: list[float] = []
    with socket.create_connection((HOST, server.port), timeout=TIMEOUT) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        reader = Reader(sock)
        reader.start()
        try:
            begin = perf_counter() + LEAD_IN
            for index in range(paced):
                when = begin + index / rate
                delay = when - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lags.append(perf_counter() - when)
                sock.sendall(frames[index])
                due.append(when)
            reader.wait_for(paced)
            cuts = [paced + (total - paced) * k // BURSTS for k in range(BURSTS + 1)]
            scaled_wall = 0.0
            for first, last in zip(cuts, cuts[1:]):
                server.start_probe()
                start = perf_counter()
                sock.sendall(b"".join(frames[first:last]))
                reader.wait_for(last)
                wall = reader.stamps[last - 1] - start
                speed, spent = server.stop_probe()
                scaled_wall += (wall - spent) * speed
            sock.sendall(b'{"op":"metrics","id":"metrics"}\n{"op":"shutdown"}\n')
            reader.wait_for(total + 2)
        finally:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            reader.join(TIMEOUT)
    summary = server.finish()
    return Session(
        due=due,
        lags=lags,
        stamps=reader.stamps,
        payloads=[json.loads(line) for line in reader.lines],
        burst_rate=(total - paced) / scaled_wall,
        summary=summary,
    )


def _statuses(session: Session, total: int, outcome: Outcome) -> list[str | None]:
    """Each request's accept/reject status, failing what is missing, out
    of order (a connection answers in request order, which the latency
    stamps rely on) or not a clean decision."""
    statuses: list[str | None] = [None] * total
    for position, payload in enumerate(session.payloads[:total]):
        rid = payload.get("id")
        if rid != position:
            outcome.fail(1, f"response {position} out of order: {payload}")
            continue
        if (
            payload.get("ok") is not True
            or payload.get("status") not in ("accepted", "rejected")
            or payload.get("durable") is False
        ):
            outcome.fail(1, f"request {rid} failed: {payload}")
            statuses[rid] = "failed"
            continue
        statuses[rid] = payload["status"]
    missing = statuses.count(None)
    if missing:
        outcome.fail(missing, f"{missing} requests got no response")
    return statuses


def _reference(workload: Workload, trace: object, frames: list[bytes]) -> tuple[list[str], str]:
    """Statuses and final energy of an in-process engine fed the frames."""
    from repro.experiments.common import standard_platform
    from repro.registry import resolve_predictor, resolve_strategy
    from repro.serve.protocol import decode_frame
    from repro.serve.server import AdmissionEngine

    engine = AdmissionEngine(
        standard_platform(),
        resolve_strategy(workload.strategy),
        resolve_predictor(workload.predictor),
        trace.tasks,  # type: ignore[attr-defined]
        service_config(),
    )
    statuses = [engine.decide(decode_frame(frame)).status for frame in frames]
    engine.drain()
    return statuses, engine.state.total_energy.hex()


def _latencies(session: Session, paced: int) -> list[float]:
    return [
        session.stamps[index] - session.due[index] for index in range(paced)
    ]


def run(
    workload: Workload,
    *,
    seed: int,
    seconds: int,
    traced: bool,
    out_dir: Path,
) -> Outcome:
    """Run the serve workload (see the module docstring)."""
    from repro.experiments.common import standard_platform
    from repro.experiments.config import CALIBRATED_ARRIVAL_SCALE
    from repro.util.rng import RngStreams
    from repro.workload.taskgen import generate_task_set
    from repro.workload.tracegen import DeadlineGroup, TraceConfig, generate_trace

    outcome = Outcome()
    paced, burst = workload.sizes(seconds)
    total = paced + burst
    work = out_dir / "serve"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_file = work / "trace.json"
    servers: list[Server] = []
    try:
        setup, generation = [], []
        for boot in range(BOOTS):
            if servers:
                _shutdown(servers[-1].port)
                servers[-1].finish()
            start = perf_counter()
            # As standard_traces() makes its first trace, but over the
            # task set of master seed SERVE_CATALOG_SEED.
            group = DeadlineGroup[workload.group]
            tasks = generate_task_set(
                standard_platform(),
                rng=RngStreams(SERVE_CATALOG_SEED).fresh(f"tasks:{group.value}:0"),
            )
            trace = generate_trace(
                tasks,
                TraceConfig(
                    group=group,
                    n_requests=total,
                    arrival_scale=CALIBRATED_ARRIVAL_SCALE,
                ),
                rng=RngStreams(seed).fresh(f"trace:{group.value}:0"),
                seed=seed,
            )
            generated = perf_counter()
            trace_file.write_text(json.dumps(trace.to_dict()), encoding="utf-8")
            servers.append(Server(workload, trace_file, work, f"boot{boot}"))
            setup.append(perf_counter() - start)
            generation.append(generated - start)
        frames = _frames(trace)
        session = _drive(servers[-1], frames, paced, workload.rate)
        outcome.attempted += total
        statuses = _statuses(session, total, outcome)
        expected, energy = _reference(workload, trace, frames)
        mismatched = sum(
            1 for got, want in zip(statuses, expected, strict=True) if got != want
        )
        if mismatched:
            outcome.fail(
                mismatched,
                f"{mismatched} decisions differ from an in-process engine",
            )
        if session.summary["energy"] != energy:
            outcome.fail(1, "server energy differs from an in-process engine")
        outcome.outputs = json.dumps(expected)
        accepted = statuses.count("accepted")

        if not traced:
            latencies = _latencies(session, paced)
            outcome.metrics = {
                "decisions_per_s": session.burst_rate,
                "decision_p50_ms": 1e3 * percentile(latencies, 50),
                "accept_pct": 100.0 * accepted / total,
                "energy_per_accepted": (
                    float.fromhex(session.summary["energy"]) / accepted
                    if accepted
                    else 0.0
                ),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": float(session.summary["peak_rss_mb"]),
            }
            print(
                f"serve: {paced} paced latencies at {workload.rate:g}/s,"
                f" {burst} burst requests",
                flush=True,
            )
            lag = percentile(session.lags, 99)
            if lag > LAG_LIMIT / workload.rate:
                print(
                    f"perfbench: warning: the paced sender ran {1e3 * lag:.2f} ms"
                    f" late at p99, over {LAG_LIMIT:g} send interval(s); the"
                    " paced latencies were measured under a burstier load",
                    file=sys.stderr,
                    flush=True,
                )
            return outcome

        spans_path = out_dir / f"spans-{workload.name}.csv"
        servers.append(
            Server(workload, trace_file, work, "traced", spans=spans_path)
        )
        traced_session = _drive(servers[-1], frames, paced, workload.rate)
        outcome.attempted += total
        if _statuses(traced_session, total, outcome) != statuses:
            outcome.fail(1, "the traced session decided differently")
        outcome.metrics = _layer_values(
            traced_session,
            read_spans(spans_path),
            paced=paced,
            total=total,
            outcome=outcome,
        )
        outcome.metrics["workload.gen_s"] = statistics.median(generation)
        outcome.metrics["trace.overhead_pct"] = 100.0 * (
            session.burst_rate
            / traced_session.burst_rate
            - 1.0
        )
        return outcome
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)


def _layer_values(
    session: Session,
    spans: list[tuple],
    *,
    paced: int,
    total: int,
    outcome: Outcome,
) -> dict[str, float]:
    """Per-layer metrics of a traced session.

    A request's server time is its root spans (frame decode, engine
    decide, journal appends, response encode); its wait is the client
    latency minus the decide and journal spans.  All of a request's
    server time falls between its send and its response, so it must not
    exceed the latency.
    """
    values = layer_metrics(by_layer(spans), passes=1)
    served = [0.0] * total
    decided = [0.0] * total
    for span in spans:
        rid = span[RID]
        if span[PARENT] >= 0 or rid is None or not 0 <= rid < total:
            continue
        duration = span[END] - span[START]
        served[rid] += duration
        if span[NAME] in ("serve.decide", "journal.append"):
            decided[rid] += duration
    latencies = _latencies(session, paced)
    waits = [latencies[k] - decided[k] for k in range(paced)]
    overdrawn = sum(1 for k in range(paced) if served[k] > latencies[k] + SLACK)
    errors = nesting_errors(spans)
    if overdrawn or errors:
        outcome.fail(
            1,
            f"span accounting: {errors} spans outside their parent, {overdrawn}"
            " requests with more server time than client latency",
        )
    metrics = session.payloads[total].get("metrics", {})
    counters = metrics.get("counters", {})
    summary = session.summary
    values.update(
        {
            "sim.migrations": float(summary["migrations"]),
            "sim.aborts": float(summary["aborts"]),
            "journal.bytes_per_decision": summary["journal_bytes"]
            / max(1, summary["decisions"]),
            "serve.wait_p50_ms": 1e3 * percentile(waits, 50),
            "serve.wait_p99_ms": 1e3 * percentile(waits, 99),
            "serve.shed": float(counters.get("serve/shed", 0)),
            "serve.errors": float(counters.get("serve/errors", 0)),
            "serve.journal_errors": float(counters.get("serve/journal_errors", 0)),
            "serve.reprovisions": float(counters.get("serve/reprovisions", 0)),
            "gen.lag_p99_ms": 1e3 * percentile(session.lags, 99),
            "trace.accounted_pct": 100.0 * sum(served[:paced]) / sum(latencies),
        }
    )
    return values
