"""Batch execution of simulations over trace groups.

Every experiment in this package is "run a set of configurations over a
set of traces and aggregate" — :func:`run_matrix` does exactly that, with
deterministic per-trace seeding so results are exactly reproducible and
directly comparable across configurations (each configuration sees the
*same* traces).

Passing ``parallel=`` fans the (spec x trace) matrix out over worker
processes (see :mod:`repro.experiments.executor`); results are folded
back in stable spec-major order, so the aggregates are bit-identical to
the serial path.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.core.base import MappingStrategy
from repro.model.platform import Platform
from repro.predict.base import Predictor
from repro.registry import predictor_factory, strategy_factory
from repro.sim.result import SimulationResult
from repro.sim.simulator import SimulationConfig, Simulator
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.executor import ParallelConfig
    from repro.faults.plan import FaultPlan
    from repro.obs.events import TraceOptions
    from repro.obs.metrics import MetricsSnapshot

__all__ = [
    "RunSpec",
    "Aggregate",
    "CellFailure",
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

    ``retry_delays`` holds the seeded backoff delay (seconds) charged
    before each re-attempt in the parallel executor — empty for a
    first-attempt success, one entry per retry otherwise.

    ``metrics`` is the cell's :class:`~repro.obs.metrics.MetricsSnapshot`
    when the spec ran with ``SimulationConfig(tracer=TraceOptions(...))``
    and metrics collection on; ``None`` otherwise (DESIGN.md §11).
    """

    label: str
    trace_index: int
    wall_time: float
    solver_calls: int
    attempts: int = 1
    verified: bool | None = None
    retry_delays: tuple[float, ...] = ()
    metrics: "MetricsSnapshot | None" = None


@dataclass(frozen=True)
class CellFailure:
    """A (spec, trace) cell that failed after all retry attempts."""

    label: str
    trace_index: int
    error: str
    attempts: int
    retry_delays: tuple[float, ...] = ()


@dataclass
class Aggregate:
    """Per-configuration aggregation over all traces."""

    label: str
    rejection_percentages: list[float] = field(default_factory=list)
    normalized_energies: list[float] = field(default_factory=list)
    results: list[SimulationResult] = field(default_factory=list)
    cell_stats: list[CellStats] = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)

    def add(self, result: SimulationResult, *, keep_result: bool) -> None:
        """Fold one simulation result into the aggregate."""
        self.rejection_percentages.append(result.rejection_percentage)
        self.normalized_energies.append(result.normalized_energy)
        if keep_result:
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
    def n_failures(self) -> int:
        """How many cells failed (recorded, not aggregated)."""
        return len(self.failures)

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
        snapshot is identical across serial and parallel execution and
        across chunkings; DESIGN.md §11).  ``None`` when no cell
        collected metrics.
        """
        from repro.obs.metrics import MetricsSnapshot

        return MetricsSnapshot.merge_all(
            stats.metrics for stats in self.cell_stats
        )


def run_matrix(
    traces: Sequence[Trace],
    platform: Platform,
    specs: Sequence[RunSpec],
    *,
    keep_results: bool = False,
    progress: Callable[[str, int, int], None] | None = None,
    parallel: "ParallelConfig | int | None" = None,
    checkpoint: str | None = None,
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
        Optional callback ``(label, trace_index, n_traces)``.  Serially
        it fires before each simulation; in parallel mode it fires as
        cells *complete* (completion order is nondeterministic, the
        folded aggregates are not).
    parallel:
        ``None`` runs in-process (the historical behaviour).  A
        :class:`~repro.experiments.executor.ParallelConfig` (or a bare
        worker count) fans cells out over a process pool; aggregates are
        bit-identical to the serial path, and failing cells are recorded
        in ``Aggregate.failures`` instead of aborting the sweep.
    checkpoint:
        Optional path of a crash-safe checkpoint journal (parallel mode
        only, see :mod:`repro.experiments.checkpoint`): completed cells
        are journaled as they finish, and re-running with the same
        arguments and journal resumes from where the previous run died,
        bit-identical to an uninterrupted run.
    """
    labels = [spec.label for spec in specs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate spec labels: {labels}")
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
    if checkpoint is not None and parallel is None:
        raise ValueError(
            "checkpoint journaling requires the parallel executor; pass "
            "parallel= (e.g. parallel=1 for a single worker)"
        )
    if parallel is not None:
        from repro.experiments.executor import ParallelConfig, execute_matrix

        if isinstance(parallel, int):
            parallel = ParallelConfig(jobs=parallel)
        return execute_matrix(
            traces,
            platform,
            specs,
            keep_results=keep_results,
            progress=progress,
            config=parallel,
            checkpoint=checkpoint,
        )
    aggregates = {spec.label: Aggregate(spec.label) for spec in specs}
    for spec in specs:
        for index, trace in enumerate(traces):
            if progress is not None:
                progress(spec.label, index, len(traces))
            simulator = Simulator(
                platform, spec.strategy(), spec.predictor(), spec.sim_config
            )
            start = time.perf_counter()
            result = simulator.run(trace)
            aggregate = aggregates[spec.label]
            aggregate.add(result, keep_result=keep_results)
            aggregate.cell_stats.append(
                CellStats(
                    label=spec.label,
                    trace_index=index,
                    wall_time=time.perf_counter() - start,
                    solver_calls=result.solver_calls_total,
                    verified=(
                        result.verification.ok
                        if result.verification is not None
                        else None
                    ),
                    metrics=result.metrics,
                )
            )
    return aggregates
