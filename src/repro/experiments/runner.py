"""Batch execution of simulations over trace groups.

Every experiment in this package is "run a set of configurations over a
set of traces and aggregate" — :func:`run_matrix` does exactly that, with
deterministic per-trace seeding so results are exactly reproducible and
directly comparable across configurations (each configuration sees the
*same* traces).

Each (spec x trace) cell runs through one function, :func:`_run_cell`,
and every cell record folds back through one method,
:meth:`Aggregate.fold`, in stable spec-major order.  The worker count
only picks how cells are mapped: in-process, or over a process pool.
The aggregates are therefore bit-identical for every worker count, and
a checkpointed run resumes the same way on either path.
"""

from __future__ import annotations

import math
import os
import pickle
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

from repro.core.base import MappingStrategy
from repro.model.platform import Platform
from repro.predict.base import Predictor
from repro.registry import predictor_factory, strategy_factory
from repro.sim.result import SimulationResult
from repro.sim.simulator import SimulationConfig, Simulator
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan
    from repro.obs.events import TraceOptions
    from repro.obs.metrics import MetricsSnapshot

__all__ = [
    "RunSpec",
    "Aggregate",
    "CellStats",
    "run_matrix",
]


def _no_predictor() -> None:
    """Default predictor factory: no prediction (module-level so
    :class:`RunSpec` stays picklable)."""
    return None


@dataclass(frozen=True)
class RunSpec:
    """One configuration of the (strategy, predictor, simulator) triple.

    Factories (not instances) are taken so every trace gets fresh,
    state-free objects — predictors learn online and must not leak state
    across traces.  For parallel execution the factories must pickle;
    :meth:`from_names` builds specs from registry names, which always do.
    """

    label: str
    strategy: Callable[[], MappingStrategy]
    predictor: Callable[[], Predictor | None] = _no_predictor
    sim_config: SimulationConfig = field(default_factory=SimulationConfig)

    @classmethod
    def from_names(
        cls,
        label: str,
        strategy: str,
        predictor: str | None = None,
        *,
        predictor_kwargs: Mapping[str, Any] | None = None,
        sim_config: SimulationConfig | None = None,
    ) -> "RunSpec":
        """Build a picklable spec from registry names.

        ``predictor=None`` (or ``"off"``) runs without prediction;
        ``predictor_kwargs`` are forwarded to the predictor constructor
        (e.g. ``{"accuracy": 0.75, "seed": 3}`` for the noise
        predictors).  Names are validated eagerly so a typo fails at
        spec-construction time, not inside a worker process.
        """
        pred_factory: Callable[[], Predictor | None]
        if predictor is None:
            if predictor_kwargs:
                raise ValueError(
                    "predictor_kwargs given without a predictor name"
                )
            pred_factory = _no_predictor
        else:
            pred_factory = predictor_factory(
                predictor, **dict(predictor_kwargs or {})
            )
        return cls(
            label=label,
            strategy=strategy_factory(strategy),
            predictor=pred_factory,
            sim_config=sim_config or SimulationConfig(),
        )


@dataclass(frozen=True)
class CellStats:
    """Observability record for one executed (spec, trace) cell.

    ``verified`` is the invariant verifier's verdict when the spec ran
    with ``SimulationConfig(verify=True)`` and ``None`` when
    verification was off (a ``False`` can only appear through a
    tampered-with report: a dirty run raises before reaching the
    aggregate).

    ``metrics`` is the cell's :class:`~repro.obs.metrics.MetricsSnapshot`
    when the spec ran with ``SimulationConfig(tracer=TraceOptions(...))``
    and metrics collection on; ``None`` otherwise (DESIGN.md §11).
    """

    label: str
    trace_index: int
    wall_time: float
    solver_calls: int
    verified: bool | None = None
    metrics: "MetricsSnapshot | None" = None


@dataclass
class Aggregate:
    """Per-configuration aggregation over all traces."""

    label: str
    rejection_percentages: list[float] = field(default_factory=list)
    normalized_energies: list[float] = field(default_factory=list)
    results: list[SimulationResult] = field(default_factory=list)
    cell_stats: list[CellStats] = field(default_factory=list)

    def add(self, result: SimulationResult, *, keep_result: bool) -> None:
        """Fold one simulation result into the aggregate."""
        self.rejection_percentages.append(result.rejection_percentage)
        self.normalized_energies.append(result.normalized_energy)
        if keep_result:
            self.results.append(result)

    def fold(
        self,
        record: Mapping[str, Any],
        result: SimulationResult | None = None,
    ) -> None:
        """Fold one cell record (see :func:`_run_cell`), fresh or resumed
        from a checkpoint journal; ``result`` is kept when given."""
        from repro.obs.metrics import MetricsSnapshot

        self.rejection_percentages.append(
            float.fromhex(record["rejection_hex"])
        )
        self.normalized_energies.append(float.fromhex(record["energy_hex"]))
        metrics = record.get("metrics")
        self.cell_stats.append(
            CellStats(
                label=self.label,
                trace_index=record["trace"],
                wall_time=record["wall_time"],
                solver_calls=record["solver_calls"],
                verified=record["verified"],
                metrics=(
                    MetricsSnapshot.from_dict(metrics)
                    if metrics is not None
                    else None
                ),
            )
        )
        if result is not None:
            self.results.append(result)

    @property
    def mean_rejection(self) -> float:
        """Mean rejection percentage over all traces."""
        return statistics.fmean(self.rejection_percentages)

    @property
    def mean_energy(self) -> float:
        """Mean normalised energy over all traces."""
        return statistics.fmean(self.normalized_energies)

    @property
    def stdev_rejection(self) -> float:
        """Sample standard deviation of the rejection percentages."""
        if len(self.rejection_percentages) < 2:
            return 0.0
        return statistics.stdev(self.rejection_percentages)

    @property
    def n_traces(self) -> int:
        """How many traces have been aggregated."""
        return len(self.rejection_percentages)

    @property
    def total_wall_time(self) -> float:
        """Sum of per-cell wall times (compute cost, not elapsed time)."""
        return sum(stats.wall_time for stats in self.cell_stats)

    @property
    def total_solver_calls(self) -> int:
        """Sum of strategy invocations across all cells."""
        return sum(stats.solver_calls for stats in self.cell_stats)

    def _wall_time_percentile(self, fraction: float) -> float:
        walls = sorted(stats.wall_time for stats in self.cell_stats)
        if not walls:
            return 0.0
        rank = min(len(walls), max(1, math.ceil(fraction * len(walls))))
        return walls[rank - 1]

    @property
    def wall_time_p50(self) -> float:
        """Median per-cell wall time (nearest-rank, 0.0 with no cells)."""
        return self._wall_time_percentile(0.50)

    @property
    def wall_time_p95(self) -> float:
        """95th-percentile per-cell wall time (nearest-rank)."""
        return self._wall_time_percentile(0.95)

    @property
    def n_verified(self) -> int:
        """Cells whose schedule passed the invariant verifier."""
        return sum(1 for stats in self.cell_stats if stats.verified)

    @property
    def metrics(self) -> "MetricsSnapshot | None":
        """The configuration's metrics, merged across all cells.

        Counters sum, gauges take the max, histograms add bucket-wise
        (the algebra is associative and commutative, so the merged
        snapshot is identical for every worker count; DESIGN.md §11).
        ``None`` when no cell collected metrics.
        """
        from repro.obs.metrics import MetricsSnapshot

        return MetricsSnapshot.merge_all(
            stats.metrics for stats in self.cell_stats
        )


# The matrix a process runs cells of, set by :func:`_init_cells` — once
# per pool worker, or around the in-process map — so a cell is named by
# a small (spec_index, trace_index) tuple.
_CELLS: tuple[Platform, Sequence[RunSpec], Sequence[Trace]] | None = None


def _init_cells(
    platform: Platform, specs: Sequence[RunSpec], traces: Sequence[Trace]
) -> None:
    global _CELLS
    _CELLS = (platform, specs, traces)


def _run_cell(
    unit: tuple[int, int],
) -> tuple[dict[str, Any], SimulationResult]:
    """Simulate one (spec_index, trace_index) cell.

    Returns the cell record the fold consumes — and the checkpoint
    journal stores verbatim: rejection and energy as ``float.hex``,
    wall time, solver calls, the verifier verdict and, when collected,
    the hex-float metrics snapshot — together with the full result.  A
    failing simulation raises a :class:`RuntimeError` naming the cell,
    chained to the original exception.
    """
    assert _CELLS is not None, "cell initializer did not run"
    platform, specs, traces = _CELLS
    spec_index, trace_index = unit
    spec = specs[spec_index]
    start = time.perf_counter()
    try:
        simulator = Simulator(
            platform, spec.strategy(), spec.predictor(), spec.sim_config
        )
        result = simulator.run(traces[trace_index])
    except Exception as exc:
        raise RuntimeError(
            f"cell (spec {spec.label!r}, trace {trace_index}) failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    record: dict[str, Any] = {
        "spec": spec_index,
        "trace": trace_index,
        "rejection_hex": result.rejection_percentage.hex(),
        "energy_hex": result.normalized_energy.hex(),
        "wall_time": time.perf_counter() - start,
        "solver_calls": result.solver_calls_total,
        "verified": (
            result.verification.ok if result.verification is not None else None
        ),
    }
    if result.metrics is not None:
        # Hex floats survive the JSON round trip exactly, so a resumed
        # aggregate's merged metrics equal an uninterrupted run's.
        record["metrics"] = result.metrics.to_dict(hex_floats=True)
    return record, result


@contextmanager
def _cell_mapper(
    workers: int,
    platform: Platform,
    specs: Sequence[RunSpec],
    traces: Sequence[Trace],
) -> Iterator[Callable[..., Iterable[Any]]]:
    """An order-preserving ``map`` for :func:`_run_cell`: the builtin
    in-process, or a process pool's when ``workers >= 2``."""
    if workers >= 2:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_cells,
            initargs=(platform, specs, traces),
        )
        try:
            yield pool.map
        finally:
            # An aborted matrix must not wait for its queued cells.
            pool.shutdown(cancel_futures=True)
        return
    global _CELLS
    previous = _CELLS
    _init_cells(platform, specs, traces)
    try:
        yield map
    finally:
        _CELLS = previous


def _resolve_jobs(parallel: int | None) -> int:
    """The worker count ``parallel=`` asks for (0 = one per core)."""
    if parallel is None:
        return 1
    if parallel < 0:
        raise ValueError(f"parallel must be >= 0, got {parallel}")
    return parallel or (os.cpu_count() or 1)


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


def run_matrix(
    traces: Sequence[Trace],
    platform: Platform,
    specs: Sequence[RunSpec],
    *,
    keep_results: bool = False,
    progress: Callable[[str, int, int], None] | None = None,
    parallel: int | None = None,
    checkpoint: str | os.PathLike[str] | None = None,
    fault_plan: "FaultPlan | None" = None,
    tracer: "TraceOptions | None" = None,
    verify: bool | None = None,
) -> dict[str, Aggregate]:
    """Run every spec over every trace.

    Parameters
    ----------
    traces:
        The workload; every spec sees the same traces in the same order.
    platform:
        Platform shared by all runs.
    specs:
        Configurations to compare; labels must be unique.
    keep_results:
        Retain each :class:`SimulationResult` (memory-heavy) in addition
        to the aggregated metrics.
    fault_plan, tracer, verify:
        The same keyword family :func:`~repro.sim.simulator.simulate`
        takes, applied uniformly to *every* spec's
        :class:`~repro.sim.simulator.SimulationConfig` (a keyword given
        here overrides the per-spec field): inject one
        :class:`~repro.faults.plan.FaultPlan` across the sweep, collect
        observability with one :class:`~repro.obs.events.TraceOptions`,
        or force invariant verification matrix-wide.
    progress:
        Optional callback ``(label, trace_index, n_traces)``, fired once
        per executed cell after it finished (and was journaled), in
        spec-major, trace-ascending order.  Cells resumed from a
        checkpoint do not fire it.
    parallel:
        Worker processes.  ``None`` or ``1`` runs cells in-process, ``N
        >= 2`` maps them over a process pool (specs must pickle), ``0``
        uses one worker per core.  The aggregates are bit-identical for
        every value.  A cell that raises aborts the matrix with a
        :class:`RuntimeError` naming the cell, on every path.
    checkpoint:
        Optional path of a crash-safe checkpoint journal (see
        :mod:`repro.experiments.checkpoint`): every finished cell is
        journaled, and re-running with the same arguments and journal
        resumes from where the previous run died, bit-identical to an
        uninterrupted run.  Cannot be combined with ``keep_results``.
    """
    labels = [spec.label for spec in specs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate spec labels: {labels}")
    jobs = _resolve_jobs(parallel)
    overrides: dict[str, object] = {}
    if fault_plan is not None:
        overrides["fault_plan"] = fault_plan
    if tracer is not None:
        overrides["tracer"] = tracer
    if verify is not None:
        overrides["verify"] = verify
    if overrides:
        specs = [
            replace(spec, sim_config=replace(spec.sim_config, **overrides))
            for spec in specs
        ]
    if jobs >= 2:
        _check_picklable(specs)

    journal = None
    records: dict[tuple[int, int], dict[str, Any]] = {}
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
        records = journal.completed

    units = [
        (spec_index, trace_index)
        for spec_index in range(len(specs))
        for trace_index in range(len(traces))
        if (spec_index, trace_index) not in records
    ]
    results: dict[tuple[int, int], SimulationResult] = {}
    try:
        with _cell_mapper(
            min(jobs, len(units)), platform, specs, traces
        ) as cell_map:
            for record, result in cell_map(_run_cell, units):
                unit = (record["spec"], record["trace"])
                if journal is not None:
                    journal.record(record)
                records[unit] = record
                if keep_results:
                    results[unit] = result
                if progress is not None:
                    progress(specs[unit[0]].label, unit[1], len(traces))
    finally:
        if journal is not None:
            journal.close()

    # Fold in stable spec-major, trace-ascending order: identical floats,
    # identical list order and dict order for every worker count.
    aggregates = {spec.label: Aggregate(spec.label) for spec in specs}
    for spec_index, spec in enumerate(specs):
        for trace_index in range(len(traces)):
            unit = (spec_index, trace_index)
            aggregates[spec.label].fold(records[unit], results.get(unit))
    return aggregates
