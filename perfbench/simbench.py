"""Simulator workloads: ``simulate()`` over Sec. 5.1 traces, in-process.

A run generates the seeded traces (``SETUP_REPEATS`` times, for a median
set-up time), replays them once untimed with the schedule-invariant
verifier on, then replays them in timed passes until ``seconds`` are
up.  Every timed pass must reproduce the verified pass's accepted and
rejected requests and its energy to the last bit.

Untraced, a pass times each ``simulate()`` call as a whole and stamps
every ``PlatformState.advance`` call, which ``simulate()`` makes once per
arrival (and once to drain): the gaps between stamps are the host time
of each arrival's step.  Traced, passes alternate between untraced and
traced (layer wrappers of :mod:`perfbench.spans` installed), which gives
both the per-layer attribution and the tracing overhead.

The end-to-end times are given at the reference host speed of
:func:`perfbench.common.speed_of`: before every ``simulate()`` call of
an untraced pass the reference loop is timed, and each pass's times are
scaled by the host speed over that pass.  Throughput is all requests
over all scaled wall time, the step latency the mean over passes of each
pass's scaled median step, and set-up time is scaled by the host speed
measured just before each set-up.
"""

from __future__ import annotations

import hashlib
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from perfbench.common import (
    Outcome,
    host_speed,
    peak_rss_mb,
    percentile,
    reference_loop,
    speed_of,
)
from perfbench.spans import (
    NAME,
    PARENT,
    Recorder,
    by_layer,
    installed,
    layer_metrics,
    nesting_errors,
    self_times,
    write_spans,
)
from perfbench.workloads import Workload

__all__ = ["run"]

SETUP_REPEATS = 5
#: Self times must add up to the traced wall time within this share.
ACCOUNTING_TOLERANCE = 1e-3


def _fingerprint(result: object) -> tuple:
    return (
        tuple(result.accepted),  # type: ignore[attr-defined]
        tuple(result.rejected),  # type: ignore[attr-defined]
        result.total_energy.hex(),  # type: ignore[attr-defined]
    )


@contextmanager
def _step_stamps(stamps: list[float]) -> Iterator[None]:
    """Stamp the host time of every ``PlatformState.advance`` call."""
    from repro.sim.state import PlatformState

    advance = PlatformState.advance

    def stamped(self: PlatformState, until: float) -> list:
        stamps.append(perf_counter())
        return advance(self, until)

    PlatformState.advance = stamped  # type: ignore[method-assign]
    try:
        yield
    finally:
        PlatformState.advance = advance  # type: ignore[method-assign]


def _step_ids(spans: list[tuple]) -> list[int]:
    """Request id of each span: the arrival step of its simulate() call
    (each step starts with an advance made directly by simulate())."""
    ids = []
    step = -1
    for span in spans:
        if span[PARENT] < 0:
            step = -1
        elif span[NAME] == "sim.advance" and spans[span[PARENT]][NAME] == "sim.simulate":
            step += 1
        ids.append(step)
    return ids


def run(
    workload: Workload,
    *,
    seed: int,
    seconds: int,
    traced: bool,
    out_dir: Path,
) -> Outcome:
    """Run one sim workload (see the module docstring)."""
    from repro import VerificationError, simulate
    from repro.experiments.common import standard_platform, standard_traces
    from repro.experiments.config import HarnessScale
    from repro.registry import resolve_predictor, resolve_strategy
    from repro.workload.tracegen import DeadlineGroup

    outcome = Outcome()
    platform = standard_platform()
    scale = HarnessScale(
        workload.n_traces, workload.n_requests, master_seed=seed
    )
    setup, generation = [], []
    for _ in range(SETUP_REPEATS):
        speed = host_speed()
        start = perf_counter()
        traces = standard_traces(DeadlineGroup[workload.group], scale)
        generated = perf_counter()
        strategy = resolve_strategy(workload.strategy)
        predictor = resolve_predictor(workload.predictor)
        setup.append((perf_counter() - start) * speed)
        generation.append(generated - start)

    # The untimed reference pass, through the schedule-invariant verifier.
    reference: list[tuple | None] = []
    accepted = migrations = aborts = 0
    energy = 0.0
    for trace in traces:
        try:
            result = simulate(trace, platform, strategy, predictor, verify=True)
        except VerificationError as exc:
            outcome.fail(len(trace), f"verifier rejected a trace: {exc}")
            reference.append(None)
            continue
        reference.append(_fingerprint(result))
        accepted += result.n_accepted
        energy += result.total_energy
        migrations += result.migration_count
        aborts += result.abort_count
    requests = sum(len(trace) for trace in traces)
    outcome.outputs = hashlib.sha256(repr(reference).encode()).hexdigest()

    def replay(
        simulate_fn: Callable,
        stamps: list[float],
        steps: list[float],
        loops: list[float] | None = None,
    ) -> float:
        """One timed pass over every trace; returns its wall time.  With
        ``loops``, the reference loop is timed before each trace."""
        wall = 0.0
        for trace, expected in zip(traces, reference, strict=True):
            if loops is not None:
                loops.append(reference_loop())
            stamps.clear()
            start = perf_counter()
            result = simulate_fn(trace, platform, strategy, predictor)
            wall += perf_counter() - start
            steps.extend(b - a for a, b in zip(stamps, stamps[1:]))
            outcome.attempted += len(trace)
            if _fingerprint(result) != expected:
                outcome.fail(
                    len(trace), "a timed pass disagrees with the verified pass"
                )
        return wall

    deadline = perf_counter() + seconds
    if not traced:
        stamps: list[float] = []
        walls: list[float] = []
        step_p50s: list[float] = []
        with _step_stamps(stamps):
            while not walls or perf_counter() < deadline:
                steps: list[float] = []
                loops: list[float] = []
                wall = replay(simulate, stamps, steps, loops)
                speed = speed_of(loops)
                walls.append(wall * speed)
                step_p50s.append(percentile(steps, 50) * speed)
        outcome.metrics = {
            "decisions_per_s": requests * len(walls) / sum(walls),
            "decision_p50_ms": 1e3 * statistics.fmean(step_p50s),
            "accept_pct": 100.0 * accepted / requests,
            "energy_per_accepted": energy / accepted if accepted else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
        }
        return outcome

    recorder = Recorder()
    root = recorder.wrap("sim.simulate", simulate)
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    while not traced_walls or perf_counter() < deadline:
        untraced_walls.append(replay(simulate, [], []))
        with installed(recorder, predictor):
            traced_walls.append(replay(root, [], []))
    spans = recorder.spans
    roots = sum(span[2] - span[1] for span in spans if span[PARENT] < 0)
    accounted = 100.0 * sum(self_times(spans)) / roots
    errors = nesting_errors(spans)
    if errors or abs(accounted - 100.0) > 100.0 * ACCOUNTING_TOLERANCE:
        outcome.fail(
            1,
            f"span accounting: {errors} spans outside their parent, self "
            f"times cover {accounted:.4f}% of the traced wall time",
        )
    write_spans(
        out_dir / f"spans-{workload.name}.csv", spans, _step_ids(spans)
    )
    outcome.metrics = layer_metrics(by_layer(spans), passes=len(traced_walls))
    outcome.metrics.update(
        {
            "workload.gen_s": statistics.median(generation),
            "sim.migrations": float(migrations),
            "sim.aborts": float(aborts),
            "trace.accounted_pct": accounted,
            "trace.overhead_pct": 100.0
            * (
                statistics.median(traced_walls)
                / statistics.median(untraced_walls)
                - 1.0
            ),
        }
    )
    return outcome
