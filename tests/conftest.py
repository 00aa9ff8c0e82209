"""Shared fixtures for the test suite.

Everything is seeded and small: the suite must be fast and perfectly
deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.model.platform import Platform
from repro.model.request import Request
from repro.model.task import TaskType
from repro.workload.taskgen import TaskSetConfig, generate_task_set
from repro.workload.trace import Trace
from repro.workload.tracegen import DeadlineGroup, TraceConfig, generate_trace

# Property tests draw the same examples on every run by default; the
# slow lane explores with fresh draws via --hypothesis-profile=random.
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile("ci")


@pytest.fixture
def platform() -> Platform:
    """The paper's experimental platform: 5 CPUs + 1 GPU."""
    return Platform.cpu_gpu(n_cpus=5, n_gpus=1)


@pytest.fixture
def small_platform() -> Platform:
    """The motivational example's platform: 2 CPUs + 1 GPU."""
    return Platform.cpu_gpu(n_cpus=2, n_gpus=1)


@pytest.fixture
def cpu_platform() -> Platform:
    """A homogeneous fully-preemptable platform."""
    return Platform.cpu_gpu(n_cpus=3, n_gpus=0)


@pytest.fixture
def simple_task() -> TaskType:
    """A task executable everywhere on a 3-resource platform."""
    return TaskType(
        type_id=0,
        wcet=(10.0, 12.0, 4.0),
        energy=(5.0, 6.0, 1.0),
        migration_time=1.0,
        migration_energy=0.5,
    )


def make_task(
    type_id: int = 0,
    wcet=(10.0, 12.0, 4.0),
    energy=(5.0, 6.0, 1.0),
    migration_time=1.0,
    migration_energy=0.5,
) -> TaskType:
    """Helper used across core/sim tests."""
    return TaskType(
        type_id=type_id,
        wcet=tuple(wcet),
        energy=tuple(energy),
        migration_time=migration_time,
        migration_energy=migration_energy,
    )


@pytest.fixture
def task_factory():
    return make_task


@pytest.fixture
def tiny_trace(platform) -> Trace:
    """A 30-request VT trace over a 20-type task set (seeded)."""
    tasks = generate_task_set(
        platform, TaskSetConfig(n_tasks=20), rng=np.random.default_rng(7)
    )
    return generate_trace(
        tasks,
        TraceConfig(group=DeadlineGroup.VT, n_requests=30, arrival_scale=3.0),
        rng=np.random.default_rng(77),
        seed=7,
    )


@pytest.fixture
def lt_trace(platform) -> Trace:
    """A 30-request LT trace (seeded)."""
    tasks = generate_task_set(
        platform, TaskSetConfig(n_tasks=20), rng=np.random.default_rng(8)
    )
    return generate_trace(
        tasks,
        TraceConfig(group=DeadlineGroup.LT, n_requests=30, arrival_scale=3.0),
        rng=np.random.default_rng(88),
        seed=8,
    )


def make_trace(tasks: list[TaskType], arrivals_types_deadlines) -> Trace:
    """Build a hand-written trace from (arrival, type_id, deadline) rows."""
    requests = [
        Request(index=i, arrival=a, type_id=t, deadline=d)
        for i, (a, t, d) in enumerate(arrivals_types_deadlines)
    ]
    return Trace(tasks, requests)


@pytest.fixture
def trace_factory():
    return make_trace
