"""Parallel executor benchmark: fig2-scale matrix, serial vs 2 workers.

Records wall-clock for the same (spec x trace) matrix through the serial
path and through ``parallel=2``, asserts the results are
bit-identical, and — on multi-core hosts — that the pool is actually
faster.  The artefact lands in ``benchmarks/out/executor_speedup.txt``.
"""

from __future__ import annotations

import os
import time

from repro.experiments.fig2_rejection import run_prediction_impact
from repro.workload.tracegen import DeadlineGroup

MULTICORE = (os.cpu_count() or 1) >= 2


def _timed(parallel):
    start = time.perf_counter()
    impact = run_prediction_impact(DeadlineGroup.VT, parallel=parallel)
    return impact, time.perf_counter() - start


def test_bench_executor_speedup(benchmark, publish):
    serial, serial_s = _timed(None)
    (par, par_s) = benchmark.pedantic(
        lambda: _timed(2), rounds=1, iterations=1
    )

    # Correctness first: the pool must be bit-identical to the loop.
    for label, aggregate in serial.aggregates.items():
        other = par.aggregates[label]
        assert other.rejection_percentages == aggregate.rejection_percentages
        assert other.normalized_energies == aggregate.normalized_energies

    speedup = serial_s / par_s if par_s > 0 else float("inf")
    lines = [
        "Executor speedup (fig2 VT matrix, serial vs 2 workers)",
        f"  host cores     : {os.cpu_count()}",
        f"  serial         : {serial_s:.2f} s",
        f"  jobs=2         : {par_s:.2f} s",
        f"  speedup        : {speedup:.2f}x",
        "  parity         : bit-identical aggregates",
    ]
    publish("executor_speedup", "\n".join(lines))

    if MULTICORE:
        # Worker start-up costs a little; anything clearly above 1x on a
        # matrix this size shows the sharding is real.
        assert speedup > 1.1
