"""Helpers shared by the benchmark's workload modules."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

__all__ = [
    "REFERENCE_LOOP_S",
    "Outcome",
    "host_speed",
    "peak_rss_mb",
    "percentile",
    "reference_loop",
    "speed_of",
]

#: Time of :func:`reference_loop` that defines the reference host speed
#: (about its median on a 2-vCPU Intel Xeon virtual machine).
REFERENCE_LOOP_S = 3e-3
#: Reference loops timed for one :func:`host_speed` reading.
SPEED_LOOPS = 5


@dataclass
class Outcome:
    """What one benchmark run measured and checked.

    ``attempted`` counts admission decisions the run asked for and
    ``failed`` those that errored, went missing or disagreed with a
    reference; ``problems`` says why.  ``outputs`` digests the decisions
    themselves, so a traced and an untraced run can be compared.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    outputs: str = ""

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_loop() -> float:
    """Time one run of a fixed pure-Python loop (dict and integer work)."""
    start = perf_counter()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(4000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0.0) + i * 0.5
        total += min(i % 13, i % 7) * 1.5
    return perf_counter() - start


def speed_of(loop_times: list[float]) -> float:
    """Host speed relative to the reference host, from reference loop times.

    On a shared machine the speed of all Python code drifts by up to 1.7x
    over minutes, which spreads raw wall times by about a fifth of their
    median between runs.  A wall time multiplied by this factor is the
    time the reference host would have taken; reference loops timed
    between pieces of the measured work track the drift to within a few
    percent.
    """
    return REFERENCE_LOOP_S / statistics.fmean(loop_times)


def host_speed() -> float:
    """:func:`speed_of` ``SPEED_LOOPS`` reference loops timed now."""
    return speed_of([reference_loop() for _ in range(SPEED_LOOPS)])
