"""Process-parallel execution of the (spec x trace) experiment matrix.

The experiment harness is embarrassingly parallel: every (configuration,
trace) cell is an independent simulation, fully determined by the spec's
factories and the trace (all seeding happens at spec construction, never
at run time).  :func:`execute_matrix` splits the matrix into work units,
fans them out over a :class:`concurrent.futures.ProcessPoolExecutor`,
and folds the results back in stable spec-major order — so the returned
aggregates are **bit-identical** to the serial path of
:func:`repro.experiments.runner.run_matrix`.

Robustness: a unit that raises inside a worker, times out, or loses its
worker process (``BrokenProcessPool``) is retried up to
``ParallelConfig.retries`` times with exponential backoff plus seeded
jitter (deterministic per unit and attempt, so schedules are
reproducible and retry storms decorrelate); a unit that still fails is
recorded as a :class:`~repro.experiments.runner.CellFailure` on its
aggregate instead of killing the sweep.  Passing ``checkpoint=`` makes
the run crash-safe: every final cell outcome is journaled as it lands
(:mod:`repro.experiments.checkpoint`), and a re-run against the same
journal resumes bit-identically, re-executing only incomplete cells.

Work units must pickle, which is why :class:`RunSpec` factories are
resolved *by registry name* (:meth:`RunSpec.from_names`,
:mod:`repro.registry`) rather than closures; specs whose factories do
not pickle are rejected with a diagnostic before any worker starts.
"""

from __future__ import annotations

import heapq
import os
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.experiments.runner import (
    Aggregate,
    CellFailure,
    CellStats,
    RunSpec,
)
from repro.model.platform import Platform
from repro.sim.result import SimulationResult
from repro.sim.simulator import Simulator
from repro.util.rng import derive_seed
from repro.util.validation import check_non_negative
from repro.workload.trace import Trace

__all__ = ["ParallelConfig", "execute_matrix"]


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the parallel experiment executor.

    Attributes
    ----------
    jobs:
        Worker processes; ``0`` means ``os.cpu_count()``.
    chunk_size:
        Work units dispatched per task (amortises IPC overhead).
        ``None`` picks ``ceil(n_units / (4 * jobs))``, capped at 8, so
        every worker gets several chunks for load balancing.
    timeout:
        Optional per-unit wall-clock budget in seconds.  A unit over
        budget is recorded as failed (and retried while attempts
        remain); the busy worker is not killed — it frees its slot when
        the simulation eventually returns.  Setting a timeout forces
        ``chunk_size=1`` so budgets are per-unit, not per-chunk.
    retries:
        How many times a failed unit is re-submitted (0 = one attempt).
    backoff_base:
        Delay in seconds before the first retry of a unit; subsequent
        retries multiply by ``backoff_factor`` up to ``backoff_max``.
        ``0.0`` disables backoff (immediate re-submission).
    backoff_factor:
        Exponential growth factor between consecutive retries (>= 1).
    backoff_max:
        Cap on the un-jittered delay in seconds.
    backoff_jitter:
        Relative jitter: the delay is scaled by a seeded uniform factor
        in ``[1, 1 + backoff_jitter]``, derived per (unit, attempt) from
        ``jitter_seed`` — deterministic across runs, decorrelated across
        units so retry storms do not re-synchronise.
    jitter_seed:
        Master seed of the jitter stream (see :meth:`retry_delay`).
    """

    jobs: int = 0
    chunk_size: int | None = None
    timeout: float | None = None
    retries: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    backoff_jitter: float = 0.25
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.timeout is not None:
            check_non_negative("timeout", self.timeout)
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        check_non_negative("backoff_base", self.backoff_base)
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        check_non_negative("backoff_max", self.backoff_max)
        check_non_negative("backoff_jitter", self.backoff_jitter)

    def retry_delay(
        self, spec_index: int, trace_index: int, attempt: int
    ) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based) of
        one (spec, trace) unit.

        ``min(backoff_max, base * factor**(attempt-1))`` scaled by a
        seeded jitter factor — a pure function of the config and the
        unit, so retry schedules are reproducible.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if delay <= 0.0:
            return 0.0
        rng = np.random.default_rng(
            derive_seed(
                self.jitter_seed,
                f"backoff:{spec_index}:{trace_index}:{attempt}",
            )
        )
        return delay * (1.0 + self.backoff_jitter * float(rng.random()))

    def resolved_jobs(self) -> int:
        """The effective worker count."""
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)

    def resolved_chunk_size(self, n_units: int) -> int:
        """The effective units-per-dispatch."""
        if self.timeout is not None:
            return 1
        if self.chunk_size is not None:
            return self.chunk_size
        jobs = self.resolved_jobs()
        return max(1, min(8, -(-n_units // (4 * jobs))))


@dataclass(frozen=True)
class _UnitOutcome:
    """What one (spec, trace) unit produced inside a worker."""

    spec_index: int
    trace_index: int
    wall_time: float
    result: SimulationResult | None = None
    error: str | None = None


# Worker-side state, set once per process by the pool initializer so
# per-chunk submissions only carry small index tuples.
_WORKER_STATE: tuple[Platform, Sequence[RunSpec], Sequence[Trace]] | None = None


def _init_worker(
    platform: Platform, specs: Sequence[RunSpec], traces: Sequence[Trace]
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (platform, specs, traces)


def _run_chunk(units: Sequence[tuple[int, int]]) -> list[_UnitOutcome]:
    """Execute a chunk of (spec_index, trace_index) units in a worker.

    Exceptions are captured per unit so one bad cell cannot take down
    the chunk (let alone the pool).
    """
    assert _WORKER_STATE is not None, "worker initializer did not run"
    platform, specs, traces = _WORKER_STATE
    outcomes = []
    for spec_index, trace_index in units:
        spec = specs[spec_index]
        start = time.perf_counter()
        try:
            simulator = Simulator(
                platform, spec.strategy(), spec.predictor(), spec.sim_config
            )
            result = simulator.run(traces[trace_index])
        except Exception as exc:  # recorded, not raised: see CellFailure
            outcomes.append(
                _UnitOutcome(
                    spec_index,
                    trace_index,
                    wall_time=time.perf_counter() - start,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
        else:
            outcomes.append(
                _UnitOutcome(
                    spec_index,
                    trace_index,
                    wall_time=time.perf_counter() - start,
                    result=result,
                )
            )
    return outcomes


def _check_picklable(specs: Sequence[RunSpec]) -> None:
    """Fail fast, with the offending label, on unpicklable specs."""
    for spec in specs:
        try:
            pickle.dumps(spec)
        except Exception as exc:
            raise ValueError(
                f"spec {spec.label!r} does not pickle and cannot be "
                f"dispatched to worker processes — build it with "
                f"RunSpec.from_names() (registry-name factories) instead "
                f"of closures/lambdas ({type(exc).__name__}: {exc})"
            ) from exc


def execute_matrix(
    traces: Sequence[Trace],
    platform: Platform,
    specs: Sequence[RunSpec],
    *,
    keep_results: bool = False,
    progress: Callable[[str, int, int], None] | None = None,
    config: ParallelConfig | None = None,
    checkpoint: str | os.PathLike[str] | None = None,
) -> dict[str, Aggregate]:
    """Run the (spec x trace) matrix on a process pool.

    Prefer calling :func:`repro.experiments.runner.run_matrix` with
    ``parallel=``; this is the engine behind it.  Aggregates come back
    in spec order with per-trace entries in trace order regardless of
    completion order; failed cells land in ``Aggregate.failures``.

    With ``checkpoint=`` every final cell outcome is journaled as it
    lands (:mod:`repro.experiments.checkpoint`); re-running against the
    same journal skips the journaled cells and folds their metrics back
    from ``float.hex`` records, so a resumed run is bit-identical to an
    uninterrupted one.
    """
    config = config or ParallelConfig()
    aggregates = {spec.label: Aggregate(spec.label) for spec in specs}
    if not traces or not specs:
        return aggregates
    _check_picklable(specs)

    journal = None
    resumed: dict[tuple[int, int], dict] = {}
    if checkpoint is not None:
        if keep_results:
            raise ValueError(
                "keep_results cannot be combined with checkpoint= — full "
                "SimulationResults are not journaled, so a resumed run "
                "could not reconstruct them"
            )
        from repro.experiments.checkpoint import (
            CheckpointJournal,
            compute_fingerprint,
        )

        journal = CheckpointJournal(
            checkpoint, compute_fingerprint(platform, specs, traces)
        )
        resumed = journal.completed

    units = [
        (spec_index, trace_index)
        for spec_index in range(len(specs))
        for trace_index in range(len(traces))
        if (spec_index, trace_index) not in resumed
    ]
    chunk_size = config.resolved_chunk_size(max(1, len(units)))
    chunks = [
        units[start:start + chunk_size]
        for start in range(0, len(units), chunk_size)
    ]
    max_attempts = config.retries + 1

    # (spec_index, trace_index) -> latest _UnitOutcome; attempts and
    # charged backoff delays per unit.
    outcomes: dict[tuple[int, int], _UnitOutcome] = {}
    attempts: dict[tuple[int, int], int] = {unit: 0 for unit in units}
    retry_delays: dict[tuple[int, int], list[float]] = {
        unit: [] for unit in units
    }

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(config.resolved_jobs(), len(chunks)),
            initializer=_init_worker,
            initargs=(platform, specs, traces),
        )

    def record(outcome: _UnitOutcome) -> None:
        unit = (outcome.spec_index, outcome.trace_index)
        outcomes[unit] = outcome
        if journal is not None:
            entry: dict = {
                "spec": outcome.spec_index,
                "trace": outcome.trace_index,
                "attempts": attempts[unit],
                "retry_delays": list(retry_delays[unit]),
            }
            if outcome.error is None:
                assert outcome.result is not None
                entry.update(
                    ok=True,
                    rejection_hex=outcome.result.rejection_percentage.hex(),
                    energy_hex=outcome.result.normalized_energy.hex(),
                    wall_time=outcome.wall_time,
                    solver_calls=outcome.result.solver_calls_total,
                    verified=(
                        outcome.result.verification.ok
                        if outcome.result.verification is not None
                        else None
                    ),
                )
                if outcome.result.metrics is not None:
                    # Hex floats survive the JSON round trip exactly, so
                    # a resumed aggregate's merged metrics stay
                    # bit-identical to an uninterrupted run.
                    entry["metrics"] = outcome.result.metrics.to_dict(
                        hex_floats=True
                    )
            else:
                entry.update(ok=False, error=outcome.error)
            journal.record(entry)
        if progress is not None:
            progress(
                specs[outcome.spec_index].label,
                outcome.trace_index,
                len(traces),
            )

    # Retries wait out their seeded backoff on a (ready_at, seq, chunk)
    # heap before re-entering the submission queue.
    delayed: list[tuple[float, int, list[tuple[int, int]]]] = []
    delay_seq = 0

    def schedule_retry(unit: tuple[int, int]) -> None:
        nonlocal delay_seq
        delay = config.retry_delay(unit[0], unit[1], attempts[unit])
        retry_delays[unit].append(delay)
        heapq.heappush(
            delayed, (time.monotonic() + delay, delay_seq, [unit])
        )
        delay_seq += 1

    pool = make_pool() if chunks else None
    try:
        pending: dict[Future, list[tuple[int, int]]] = {}
        deadlines: dict[Future, float] = {}
        queue = list(chunks)
        while queue or pending or delayed:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                queue.append(heapq.heappop(delayed)[2])
            while queue and len(pending) < 2 * config.resolved_jobs():
                chunk = queue.pop(0)
                for unit in chunk:
                    attempts[unit] += 1
                assert pool is not None
                future = pool.submit(_run_chunk, chunk)
                pending[future] = chunk
                if config.timeout is not None:
                    deadlines[future] = time.monotonic() + config.timeout
            if not pending:
                # Everything outstanding is waiting out its backoff.
                time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                continue
            wakeups = list(deadlines.values())
            if delayed:
                wakeups.append(delayed[0][0])
            wait_budget = None
            if wakeups:
                wait_budget = max(0.0, min(wakeups) - time.monotonic())
            done, _ = wait(
                pending, timeout=wait_budget, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            pool_broken = False
            for future in done:
                chunk = pending.pop(future)
                deadlines.pop(future, None)
                try:
                    chunk_outcomes = future.result()
                except BrokenProcessPool:
                    # A worker died hard (crash, OOM kill). The chunk's
                    # units are retried or recorded; the pool is rebuilt
                    # below once this batch of futures is drained.
                    pool_broken = True
                    _requeue_or_fail(
                        chunk,
                        attempts,
                        max_attempts,
                        "worker process crashed (BrokenProcessPool)",
                        record,
                        schedule_retry,
                    )
                    continue
                except Exception as exc:
                    _requeue_or_fail(
                        chunk,
                        attempts,
                        max_attempts,
                        f"{type(exc).__name__}: {exc}",
                        record,
                        schedule_retry,
                    )
                    continue
                for outcome in chunk_outcomes:
                    unit = (outcome.spec_index, outcome.trace_index)
                    if (
                        outcome.error is not None
                        and attempts[unit] < max_attempts
                    ):
                        schedule_retry(unit)
                        continue
                    record(outcome)
            if pool_broken:
                # In-flight chunks are lost with the pool; requeue them
                # without charging an attempt or a backoff delay (the
                # crash was not their failure).
                for future, chunk in pending.items():
                    future.cancel()
                    for unit in chunk:
                        attempts[unit] -= 1
                    queue.append(chunk)
                pending.clear()
                deadlines.clear()
                assert pool is not None
                pool.shutdown(wait=False, cancel_futures=True)
                pool = make_pool()
                continue
            expired = [
                future
                for future in list(pending)
                if deadlines.get(future, now + 1) <= now
            ]
            for future in expired:
                chunk = pending.pop(future)
                deadlines.pop(future, None)
                future.cancel()  # a running chunk keeps its slot; see docs
                _requeue_or_fail(
                    chunk,
                    attempts,
                    max_attempts,
                    f"timed out after {config.timeout:g}s "
                    "(worker still draining)",
                    record,
                    schedule_retry,
                )
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if journal is not None:
            journal.close()

    # Fold in stable spec-major, trace-ascending order: identical floats,
    # identical list order, identical dict order to the serial path.
    # Resumed cells fold from their journal entries (float.fromhex), so a
    # resumed aggregate is bit-identical to an uninterrupted run.
    for spec_index, spec in enumerate(specs):
        aggregate = aggregates[spec.label]
        for trace_index in range(len(traces)):
            unit = (spec_index, trace_index)
            entry = resumed.get(unit)
            if entry is not None:
                _fold_journal_entry(aggregate, spec.label, entry)
                continue
            outcome = outcomes.get(unit)
            if outcome is None or outcome.error is not None:
                aggregate.failures.append(
                    CellFailure(
                        label=spec.label,
                        trace_index=trace_index,
                        error=(
                            outcome.error
                            if outcome is not None
                            else "unit never completed"
                        ),
                        attempts=attempts[unit],
                        retry_delays=tuple(retry_delays[unit]),
                    )
                )
                continue
            assert outcome.result is not None
            aggregate.add(outcome.result, keep_result=keep_results)
            aggregate.cell_stats.append(
                CellStats(
                    label=spec.label,
                    trace_index=trace_index,
                    wall_time=outcome.wall_time,
                    solver_calls=outcome.result.solver_calls_total,
                    attempts=attempts[unit],
                    verified=(
                        outcome.result.verification.ok
                        if outcome.result.verification is not None
                        else None
                    ),
                    retry_delays=tuple(retry_delays[unit]),
                    metrics=outcome.result.metrics,
                )
            )
    return aggregates


def _fold_journal_entry(
    aggregate: Aggregate, label: str, entry: dict
) -> None:
    """Fold one journaled cell outcome from a previous (crashed) run."""
    trace_index = entry["trace"]
    delays = tuple(entry.get("retry_delays", ()))
    if not entry["ok"]:
        aggregate.failures.append(
            CellFailure(
                label=label,
                trace_index=trace_index,
                error=entry["error"],
                attempts=entry["attempts"],
                retry_delays=delays,
            )
        )
        return
    aggregate.rejection_percentages.append(
        float.fromhex(entry["rejection_hex"])
    )
    aggregate.normalized_energies.append(float.fromhex(entry["energy_hex"]))
    metrics_dict = entry.get("metrics")
    if metrics_dict is not None:
        from repro.obs.metrics import MetricsSnapshot

        metrics = MetricsSnapshot.from_dict(metrics_dict)
    else:
        metrics = None
    aggregate.cell_stats.append(
        CellStats(
            label=label,
            trace_index=trace_index,
            wall_time=entry["wall_time"],
            solver_calls=entry["solver_calls"],
            attempts=entry["attempts"],
            verified=entry["verified"],
            retry_delays=delays,
            metrics=metrics,
        )
    )


def _requeue_or_fail(
    chunk: Sequence[tuple[int, int]],
    attempts: dict[tuple[int, int], int],
    max_attempts: int,
    error: str,
    record: Callable[[_UnitOutcome], None],
    schedule_retry: Callable[[tuple[int, int]], None],
) -> None:
    """Schedule retry singletons for a failed chunk; record exhausted
    units.

    Retrying units one-by-one isolates a poisonous cell from its chunk
    mates on the second attempt, and each retry waits out its seeded
    backoff delay before re-submission.
    """
    for unit in chunk:
        if attempts[unit] < max_attempts:
            schedule_retry(unit)
        else:
            record(
                _UnitOutcome(
                    spec_index=unit[0],
                    trace_index=unit[1],
                    wall_time=0.0,
                    error=error,
                )
            )
