"""Server side of the serve workload, started by ``servebench.py``.

    python3 perfbench/serve_launcher.py --trace-file T --journal J \
        --strategy heuristic --predictor learned --summary S [--spans P]

Builds an ``AdmissionServer`` in replay mode over the task catalog of the
trace in file T, prints ``PORT <n>`` once its socket is bound, and serves
until a ``shutdown`` op or until its standard input closes (the driving
process went away).  It then writes a JSON summary to S: peak RSS,
final platform energy, migrations, aborts, decisions and journal size.
With ``--spans`` the layer wrappers of ``spans.py`` are installed before
the server is built and the recorded spans are written to P at exit.

A ``start`` line on standard input starts timing the reference loop
(``perfbench.common.reference_loop``) before every ``PROBE_EVERY``-th
``AdmissionEngine.decide`` call; a ``speed`` line stops it and prints
``SPEED <speed> <seconds>``: the host speed over the probed stretch and
the time the loops took.  ``servebench.py`` brackets each pipelined
burst this way.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.common import peak_rss_mb, reference_loop, speed_of  # noqa: E402

#: Deeper than any burst: the single tenant's pipelined burst backs up
#: into the bounded dispatch queue and the socket instead of being shed.
QUEUE_DEPTH = 1 << 16

#: Decisions between reference loops while probing: a loop (~3 ms) per
#: ~100 decisions (~60 ms) adds about 5% to a burst, which the load
#: generator subtracts again.
PROBE_EVERY = 100


class SpeedProbe:
    """Times the reference loop between decisions, from start to stop.

    The two vCPUs of a shared host change speed independently, and the
    server process is busy throughout a burst: reference loops timed in
    the load generator, or in the server once a burst was over, did not
    follow the server's decision rate.  Loops timed in the server's own
    decision path do, as they do in the sims.
    """

    def __init__(self) -> None:
        self._times: list[float] = []
        self._active = False
        self._decisions = 0

    def wrap(self, decide: Callable) -> Callable:
        def probed(engine: object, frame: object) -> object:
            if self._active:
                self._decisions += 1
                if self._decisions % PROBE_EVERY == 0:
                    self._times.append(reference_loop())
            return decide(engine, frame)

        return probed

    def start(self) -> None:
        self._times.clear()
        self._decisions = 0
        self._active = True

    def stop(self) -> tuple[float, float]:
        """Stop probing; the host speed and the loops' total time."""
        self._active = False
        spent = sum(self._times)
        if not self._times:
            self._times.append(reference_loop())
        return speed_of(self._times), spent


def service_config(journal_path: str | None = None):
    """The ServeConfig of the server and of the in-process reference
    engine the load generator checks its decisions against."""
    from repro.serve.server import ServeConfig

    return ServeConfig(
        host="127.0.0.1",
        port=0,
        mode="replay",
        queue_depth=QUEUE_DEPTH,
        journal_path=journal_path,
        # Every record is still written; with fsync the capacity followed
        # the host's disk (~340/s to ~1000/s between runs), not the program.
        journal_fsync=False,
    )


async def _serve(platform, strategy, predictor, tasks, config, probe):
    from repro.serve.server import AdmissionServer

    server = AdmissionServer(
        platform, strategy, predictor, tasks=tasks, config=config
    )
    await server.start()
    loop = asyncio.get_running_loop()
    stdin = sys.stdin.fileno()

    def on_stdin() -> None:
        data = os.read(stdin, 4096)
        if not data:
            loop.remove_reader(stdin)
            server.request_shutdown()
        for command in data.split():
            if command == b"start":
                probe.start()
            elif command == b"speed":
                speed, spent = probe.stop()
                print(f"SPEED {speed!r} {spent!r}", flush=True)

    loop.add_reader(stdin, on_stdin)
    print(f"PORT {server.port}", flush=True)
    try:
        await server.serve_until_shutdown()
    finally:
        loop.remove_reader(stdin)
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--strategy", required=True)
    parser.add_argument("--predictor", required=True)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from repro.experiments.common import standard_platform
    from repro.registry import resolve_predictor, resolve_strategy
    from repro.serve.server import AdmissionEngine
    from repro.workload.trace import Trace

    from perfbench.spans import Recorder, installed, write_spans

    trace = Trace.from_dict(
        json.loads(Path(args.trace_file).read_text(encoding="utf-8"))
    )
    strategy = resolve_strategy(args.strategy)
    predictor = resolve_predictor(args.predictor)
    recorder = Recorder()
    tracing = (
        installed(recorder, predictor) if args.spans else contextlib.nullcontext()
    )
    probe = SpeedProbe()
    with tracing:
        # Outside the tracing wrapper, so no span includes a probe.
        decide = AdmissionEngine.decide
        AdmissionEngine.decide = probe.wrap(decide)  # type: ignore[method-assign]
        try:
            server = asyncio.run(
                _serve(
                    standard_platform(),
                    strategy,
                    predictor,
                    trace.tasks,
                    service_config(args.journal),
                    probe,
                )
            )
        finally:
            AdmissionEngine.decide = decide  # type: ignore[method-assign]
    state = server.engine.state
    summary = {
        "peak_rss_mb": peak_rss_mb(),
        "energy": state.total_energy.hex(),
        "migrations": state.migration_count,
        "aborts": state.abort_count,
        "decisions": server.engine.decisions,
        "journal_bytes": (
            os.path.getsize(args.journal) if os.path.exists(args.journal) else 0
        ),
    }
    Path(args.summary).write_text(json.dumps(summary), encoding="utf-8")
    if args.spans:
        write_spans(Path(args.spans), recorder.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
