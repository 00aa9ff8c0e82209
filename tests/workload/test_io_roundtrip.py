"""Property tests: the trace JSON round-trip is *exact*.

A trace that survives JSON (``to_dict``/``from_dict``) must come back
equal float-for-float — ``load(dump(t)) == t`` with :class:`Trace`
structural equality, not merely approximately.  JSON writes
``repr``-style floats, which round-trip IEEE-754 doubles exactly, so
the property holds for *arbitrary* finite values, not just the
generator's outputs.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.platform import Platform
from repro.model.request import Request
from repro.model.task import NOT_EXECUTABLE, TaskType
from repro.workload.taskgen import TaskSetConfig, generate_task_set
from repro.workload.trace import Trace
from repro.workload.tracegen import DeadlineGroup, TraceConfig, generate_trace

_positive = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)
_arrival = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def _traces(draw) -> Trace:
    """Hand-built traces with adversarial (non-round) float values."""
    n_resources = draw(st.integers(min_value=1, max_value=3))
    n_tasks = draw(st.integers(min_value=1, max_value=3))
    tasks = tuple(
        TaskType(
            type_id=i,
            wcet=tuple(draw(_positive) for _ in range(n_resources)),
            energy=tuple(draw(_positive) for _ in range(n_resources)),
            migration_time=draw(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
            ),
            migration_energy=draw(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
            ),
            name=draw(st.sampled_from(["", "t", "task-x"])),
        )
        for i in range(n_tasks)
    )
    arrivals = sorted(
        draw(
            st.lists(_arrival, min_size=1, max_size=12, unique=True)
        )
    )
    requests = tuple(
        Request(
            index=i,
            arrival=arrival,
            type_id=draw(st.integers(min_value=0, max_value=n_tasks - 1)),
            deadline=draw(_positive),
        )
        for i, arrival in enumerate(arrivals)
    )
    group = draw(st.sampled_from(["", "VT", "LT"]))
    seed = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)))
    return Trace(tasks, requests, group=group, seed=seed)


class TestJsonRoundTrip:
    @given(trace=_traces())
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip_is_exact(self, trace):
        assert Trace.from_dict(trace.to_dict()) == trace

    @given(trace=_traces())
    @settings(max_examples=60, deadline=None)
    def test_json_text_round_trip_is_exact(self, trace):
        """Through the actual serialised text, as save()/load() do."""
        text = json.dumps(trace.to_dict())
        assert Trace.from_dict(json.loads(text)) == trace

    @given(trace=_traces())
    @settings(max_examples=30, deadline=None)
    def test_equality_is_structural(self, trace):
        same = Trace(
            trace.tasks, trace.requests, group=trace.group, seed=trace.seed
        )
        assert same == trace
        assert trace != object()
        relabelled = Trace(
            trace.tasks,
            trace.requests,
            group=trace.group + "x",
            seed=trace.seed,
        )
        assert relabelled != trace

    def test_not_executable_survives_round_trip(self):
        task = TaskType(
            type_id=0,
            wcet=(1.5, NOT_EXECUTABLE),
            energy=(2.5, NOT_EXECUTABLE),
        )
        trace = Trace(
            (task,), (Request(index=0, arrival=0.0, type_id=0, deadline=1.0),)
        )
        loaded = Trace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert loaded == trace
        assert math.isinf(loaded.tasks[0].wcet[1])

    @given(seed=st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=25, deadline=None)
    def test_generator_output_round_trips(self, seed):
        """The same property on realistic generator-produced traces."""
        platform = Platform.cpu_gpu(3, 1)
        tasks = generate_task_set(
            platform, TaskSetConfig(n_tasks=5), rng=np.random.default_rng(seed)
        )
        trace = generate_trace(
            tasks,
            TraceConfig(group=DeadlineGroup.VT, n_requests=30),
            rng=np.random.default_rng(seed + 1),
            seed=seed,
        )
        assert Trace.from_dict(trace.to_dict()) == trace

