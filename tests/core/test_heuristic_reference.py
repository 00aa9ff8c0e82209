"""Differential tests: :meth:`HeuristicResourceManager.solve` against the
straightforward reference in :mod:`tests.core.reference_heuristic`.

The production ``solve`` memoises rows on the task type, picks tasks
from a regret heap, skips prune passes that cannot bind and sums the
energy from its rows.  None of that may change an output bit: both
implementations must return the same :class:`MappingDecision` (energy
float included) and emit the same ``heuristic-place`` events, on random
activations and on the contexts the simulator builds for the paper's
own LT/VT workloads.  Comparisons use ``repr`` as well as ``==`` so a
``-0.0`` against a ``0.0`` still counts as a difference.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import MappingDecision, MappingStrategy
from repro.core.context import PREDICTED_JOB_ID, PlannedTask, RMContext
from repro.core.heuristic import HeuristicResourceManager
from repro.experiments.common import standard_platform, standard_traces
from repro.experiments.config import HarnessScale
from repro.model.platform import Platform
from repro.model.task import TaskType
from repro.obs import CollectingTracer
from repro.serve.journal import service_fingerprint
from repro.sim.simulator import simulate
from repro.workload.tracegen import DeadlineGroup
from tests.core.reference_heuristic import ReferenceHeuristic
from tests.golden.digest import event_digest, result_digest

PLATFORMS = (Platform.cpu_gpu(2, 1), Platform.cpu_gpu(3, 2))
PENALTIES = (1e9, 1e3, 1.0, 0.25)


def _near_tie_type(type_id: int, n: int) -> TaskType:
    """Energies a few ulps apart: distinct before ``+ M`` and equal after
    it, so the penalised and unpenalised preference orders differ."""
    energy = [2.0] * n
    for i in range(n):
        energy[i] = math.nextafter(energy[i - 1], 3.0) if i else 2.0
    energy[-1] = 2.0  # a tie with resource 0 even before the penalty
    return TaskType(
        type_id=type_id,
        wcet=tuple(3.0 + i for i in range(n)),
        energy=tuple(energy),
        migration_time=0.5,
        migration_energy=1e-9,
    )


def _catalog(n: int) -> tuple[TaskType, ...]:
    """Task types shared by every generated context of an ``n``-resource
    platform, so their row tables are reused across examples."""
    inf = math.inf
    return (
        TaskType(0, tuple(8.0 + 2 * i for i in range(n)),
                 tuple(5.0 - i for i in range(n)), 1.0, 0.5),
        TaskType(1, tuple(3.0 if i == n - 1 else inf for i in range(n)),
                 tuple(0.5 if i == n - 1 else inf for i in range(n)),
                 0.0, 0.0),
        TaskType(2, (4.0,) * n, (1.0,) * n, 2.0, 0.25),
        TaskType(3, tuple(12.0 - i for i in range(n)),
                 tuple(-0.0 if i == 0 else 0.5 * i for i in range(n)),
                 0.75, 0.0),
        _near_tie_type(4, n),
    )


CATALOGS = {platform.size: _catalog(platform.size) for platform in PLATFORMS}


@st.composite
def fresh_type(draw, n):
    wcet = [draw(st.floats(min_value=0.5, max_value=30.0)) for _ in range(n)]
    energy = [draw(st.floats(min_value=0.0, max_value=10.0)) for _ in range(n)]
    for i in range(n - 1):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            wcet[i] = energy[i] = math.inf
    return TaskType(
        type_id=99,
        wcet=tuple(wcet),
        energy=tuple(energy),
        migration_time=draw(st.floats(min_value=0.0, max_value=4.0)),
        migration_energy=draw(st.floats(min_value=0.0, max_value=2.0)),
    )


@st.composite
def contexts(draw):
    platform = draw(st.sampled_from(PLATFORMS))
    n = platform.size
    catalog = CATALOGS[n]
    time = draw(st.sampled_from((0.0, 3.5, 10.0)))
    tasks: list[PlannedTask] = []
    running_on: set[int] = set()
    for job_id in range(draw(st.integers(min_value=1, max_value=12))):
        task = draw(st.one_of(st.sampled_from(catalog), fresh_type(n)))
        kwargs: dict = {}
        state = draw(st.sampled_from(
            ("new", "mapped", "started", "pending", "running")
        ))
        if state != "new":
            kwargs["current_resource"] = draw(
                st.sampled_from(task.executable_resources)
            )
        if state in ("started", "pending", "running"):
            kwargs["started"] = True
            kwargs["remaining_fraction"] = draw(st.sampled_from(
                (1.0, 0.5, 0.125)
            ) | st.floats(min_value=0.05, max_value=1.0))
        if state == "pending":
            kwargs["pending_migration_time"] = draw(
                st.floats(min_value=0.0, max_value=3.0)
            )
        if state == "running":
            current = kwargs["current_resource"]
            if not platform.is_preemptable(current) and current not in running_on:
                running_on.add(current)
                kwargs["running_non_preemptable"] = True
        budget = draw(st.floats(min_value=0.5, max_value=25.0))
        tasks.append(PlannedTask(
            job_id=job_id,
            task=task,
            absolute_deadline=time + budget,
            **kwargs,
        ))
    for k in range(draw(st.integers(min_value=0, max_value=3))):
        arrival = time + draw(st.floats(min_value=0.0, max_value=12.0))
        tasks.append(PlannedTask(
            job_id=PREDICTED_JOB_ID + k,
            task=draw(st.sampled_from(catalog)),
            absolute_deadline=arrival
            + draw(st.floats(min_value=1.0, max_value=30.0)),
            is_predicted=True,
            arrival=arrival,
        ))
    down = draw(st.sampled_from((frozenset(), frozenset(), frozenset({0}),
                                 frozenset({n - 1}))))
    return RMContext(
        time=time,
        platform=platform,
        tasks=tuple(draw(st.permutations(tasks))),
        charge_unstarted_migration=draw(st.booleans()),
        down_resources=down,
    )


def _run(strategy: MappingStrategy, context: RMContext) -> tuple:
    """``(decision or raised error, events)`` of one traced solve."""
    tracer = CollectingTracer()
    strategy.tracer = tracer
    try:
        outcome: object = strategy.solve(context)
    except ValueError as exc:
        outcome = (type(exc), str(exc))
    return outcome, tracer.events


def assert_same_solve(
    context: RMContext, deadline_penalty: float = 1e9, *, remap: bool = True
) -> MappingDecision | None:
    new = _run(
        HeuristicResourceManager(deadline_penalty, remap_existing=remap),
        context,
    )
    ref = _run(
        ReferenceHeuristic(deadline_penalty, remap_existing=remap), context
    )
    assert new == ref
    assert repr(new) == repr(ref)
    decision = new[0]
    return decision if isinstance(decision, MappingDecision) else None


class TestRandomActivations:
    @given(contexts(), st.sampled_from(PENALTIES), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, context, penalty, remap):
        assert_same_solve(context, penalty, remap=remap)

    def test_near_tie_orders_flip_under_the_penalty(self):
        """The near-tie type's unpenalised order sorts by energy; once
        every resource pays ``M`` the energies collide and the order
        falls back to resource index.  Both paths must match."""
        platform = PLATFORMS[1]
        task = CATALOGS[platform.size][4]
        for budget in (2.0, 4.5, 20.0):
            context = RMContext(
                time=0.0,
                platform=platform,
                tasks=(PlannedTask(0, task, budget),
                       PlannedTask(1, task, 20.0)),
            )
            assert_same_solve(context)


class _Recorder(MappingStrategy):
    """Delegates to the production heuristic and keeps every context."""

    name = "heuristic"

    def __init__(self) -> None:
        self.inner = HeuristicResourceManager()
        self.contexts: list[RMContext] = []

    def solve(self, context: RMContext) -> MappingDecision:
        self.contexts.append(context)
        return self.inner.solve(context)


@pytest.mark.parametrize(
    ("group", "predictor"), [("LT", "learned"), ("VT", "off")]
)
def test_paper_workload_contexts_match_reference(group, predictor):
    """Every activation of two 60-request paper traces, replayed through
    both implementations."""
    platform = standard_platform()
    recorder = _Recorder()
    traces = standard_traces(
        DeadlineGroup[group], HarnessScale(2, 60, master_seed=0)
    )
    for trace in traces:
        simulate(trace, platform, recorder, predictor)
    assert len(recorder.contexts) >= 120
    placed = 0
    for context in recorder.contexts:
        decision = assert_same_solve(context)
        placed += len(decision.mapping) if decision and decision.feasible else 0
    assert placed > 0


class TestRowTable:
    def test_bounded_tuple_entries_and_no_identity_change(self):
        platform = standard_platform()
        (trace,) = standard_traces(
            DeadlineGroup.LT, HarnessScale(1, 40, master_seed=3)
        )
        catalog = list(trace.tasks)
        before = [
            (task, hash(task), repr(task), pickle.dumps(task))
            for task in catalog
        ]
        fingerprint = service_fingerprint(platform, catalog, None)
        simulate(trace, platform, "heuristic", "learned")

        n = platform.size
        assert any(task.row_cache for task in catalog)
        for task in catalog:
            assert len(task.row_cache) <= (n + 1) * 4
            for key, entry in task.row_cache.items():
                current, running, charged = key
                assert current is None or 0 <= current < n
                assert isinstance(running, bool)
                assert isinstance(charged, bool)
                assert isinstance(entry, tuple)
                assert all(
                    isinstance(part, (tuple, float)) for part in entry
                )
        for task, (old, old_hash, old_repr, old_pickle) in zip(
            catalog, before, strict=True
        ):
            assert task == old
            assert hash(task) == old_hash
            assert repr(task) == old_repr
            assert pickle.dumps(task) == old_pickle
            assert pickle.loads(pickle.dumps(task)) == task
        assert service_fingerprint(platform, catalog, None) == fingerprint

    def test_second_run_is_bit_identical(self):
        """The first replay fills the row tables, the second reads them:
        the digests of both must match to the bit."""
        (trace,) = standard_traces(
            DeadlineGroup.VT, HarnessScale(1, 40, master_seed=5)
        )
        assert not any(task.row_cache for task in trace.tasks)
        first = result_digest(trace, "heuristic", "learned")
        first_events = event_digest(trace, "heuristic", "learned")
        assert any(task.row_cache for task in trace.tasks)
        assert result_digest(trace, "heuristic", "learned") == first
        assert event_digest(trace, "heuristic", "learned") == first_events
