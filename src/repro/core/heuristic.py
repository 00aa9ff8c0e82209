"""The paper's fast mapping heuristic (Algorithm 1, Sec. 4.3).

Resources are treated as knapsacks whose capacity is the planning window
``K-bar`` in processing time; tasks are items of weight ``cpm[j,i]``.
Following Martello's knapsack heuristic, tasks are mapped in order of
*regret*: at each step the unmapped task with the largest gap between its
best and second-best desirability ``f[j,i]`` is placed on its most
desirable schedulable resource.

Desirability is the remaining energy plus migration overhead, with a
large penalty ``M`` when the execution time exceeds the task's remaining
deadline budget (line 6 of Algorithm 1).  Schedulability is checked with
the exact EDF timeline of the target resource, including the predicted
task's arrival and (on preemptable resources) its preemption —
the ``IsSchedulable`` of the paper.

Cost per activation, excluding the ``IsSchedulable`` probes, with ``L``
the size of ``S-bar`` and ``N`` the number of resources:

* rows: ``O(L * N log N)``, and for most tasks a table lookup;
* regret selection: ``O(L log L)`` to build the heap, plus
  ``O(log(L * N))`` per key change; a key changes only when a task loses
  one of its first two candidates, at most ``L * N`` times in all;
* pruning: ``O(L * N)`` per placement that can bind, so ``O(N * L^2)`` in
  the worst case; every other placement skips it in ``O(1)``.  On the
  ``sim-lt-learned`` benchmark contexts only 181 of 52,322 placements
  run the pass (``sim-vt-off``: 4,692 of 24,705).

Implementation notes (hot path; each is bit-identical to the
straightforward form kept in ``tests/core/reference_heuristic.py``,
checked by differential tests there and by the golden-trace suite in
``tests/golden``):

* the ``cpm``/energy rows are :func:`repro.core.context.cost_rows`,
  the one implementation of Sec. 4.1's costs that
  :meth:`RMContext.cpm` / :meth:`~RMContext.energy` also read;
* **row table.**  For an unstarted task (``remaining_fraction == 1.0``,
  nothing pending) on a platform with no resource down, those rows, the
  unpenalised ``f = energy + 0.0`` and its preference order depend only
  on the task type and ``(current resource, running non-preemptable,
  started or charge_unstarted)``.  They are memoised as tuples in
  :attr:`TaskType.row_cache`, at most ``(N + 1) * 4`` entries per type.
  The deadline penalty is applied per activation: when no finite cpm
  exceeds ``t_left + eps`` it adds ``0.0`` everywhere, which is the
  cached row; otherwise ``f`` is rebuilt from the cached rows with the
  same expression and sorted afresh.  Started tasks and platforms with
  a resource down are computed fresh;
* each task's resources are pre-sorted once by ``(f[j,i], i)`` (a stable
  sort on ``f`` of the ascending executable indices); the candidate
  list filters that fixed total order by remaining capacity, which
  equals filtering-then-sorting;
* **regret order.**  The reference scans the unmapped tasks in id order
  each round, keeps the first strict maximum of ``f[c1] - f[c0]``
  (regret ``inf`` for one candidate) and exits infeasible at a task with
  no candidates, but stops at the first ``inf``.  Its pick is therefore
  the smallest id with at most one candidate (infeasible if that task
  has none), else the largest finite regret with ties to the smallest
  id.  A min-heap on ``(f[c0] - f[c1], job_id)``, keyed ``-inf`` for at
  most one candidate, has exactly that top: ``a - b == -(b - a)`` in
  IEEE arithmetic, and no key is NaN because ``M`` is finite, which
  keeps ``f`` finite on every executable resource short of overflow.
  The emitted ``regret`` is recomputed as ``f[c1] - f[c0]``, so even a
  zero regret keeps its sign.  Keys change only when pruning removes one of a
  task's first two candidates; the new key is pushed and superseded
  entries are skipped when popped;
* **prune skip.**  ``max_exec[i]`` is the largest initial candidate cpm
  on resource ``i``; pruning removes ``i`` where ``cpm > capacity + eps``,
  so while ``capacity[i] + eps >= max_exec[i]`` the pass would remove
  nothing and is skipped;
* **energy from rows.**  The returned energy adds each task's energy-row
  entry at its mapped resource, in ``context.tasks`` order: the same
  terms in the same order as :func:`~repro.core.base.mapping_energy`;
* ``IsSchedulable`` keeps one incremental
  :class:`~repro.sched.timeline.Timeline` per resource and probes it,
  instead of replaying the whole resource with
  :func:`~repro.core.base.resource_timeline` on every query.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from heapq import heapify, heappop, heappush

from repro.core.base import MappingDecision, MappingStrategy
from repro.core.context import PlannedTask, RMContext, cost_rows
from repro.model import EPS
from repro.sched.timeline import Timeline

__all__ = ["HeuristicResourceManager"]

_INF = math.inf

_Row = Sequence[float]
# A row-table entry: (cpm, energy, executable resources, max finite cpm,
# unpenalised f, preference order under that f).
_CachedRows = tuple[
    tuple[float, ...],
    tuple[float, ...],
    tuple[int, ...],
    float,
    tuple[float, ...],
    tuple[int, ...],
]


class HeuristicResourceManager(MappingStrategy):
    """Algorithm 1 of the paper.

    Parameters
    ----------
    deadline_penalty:
        The constant ``M`` added to ``f[j,i]`` when ``cpm[j,i]`` exceeds
        ``t_left_j`` (making such mappings maximally undesirable without
        excluding them from the knapsack filter, exactly as in the paper).
    remap_existing:
        When True (default), every task of ``S-bar`` is re-placed from
        scratch at each activation (full remapping freedom).  When
        False, already-mapped tasks keep their resource and only the new
        arrival (and the predicted task) are placed — an ablation of how
        much the RM's power comes from remapping versus placement.
    """

    name = "heuristic"

    def __init__(
        self,
        deadline_penalty: float = 1e9,
        *,
        remap_existing: bool = True,
    ) -> None:
        if not (math.isfinite(deadline_penalty) and deadline_penalty > 0):
            raise ValueError(
                "deadline_penalty must be finite and > 0, got "
                f"{deadline_penalty}"
            )
        self.deadline_penalty = deadline_penalty
        self.remap_existing = remap_existing

    def solve(self, context: RMContext) -> MappingDecision:
        """Run Algorithm 1 on one activation (see the class docstring)."""
        tasks = context.tasks
        if not tasks:
            return MappingDecision(feasible=True, mapping={}, energy=0.0)
        tracer = self.tracer
        tracing = tracer.enabled
        platform = context.platform
        n = platform.size
        capacity = [context.window] * n
        time = context.time
        charge_unstarted = context.charge_unstarted_migration
        deadline_penalty = self.deadline_penalty
        resources = range(n)
        down = context.down_resources

        # Line 6: desirability f[j,i] = ep + em + M * (cpm > t_left),
        # with each task's executable resources pre-sorted by (f, i).
        # Per job: (cpm row, energy row, f row, preference order).
        rows_of: dict[int, tuple[_Row, _Row, _Row, Sequence[int]]] = {}
        for task in tasks:
            # Meets its deadline: cpm <= t_left + EPS, with t_left
            # measured from when the task can start (line 6's penalty
            # test).
            threshold = task.absolute_deadline - context.ready_at(task) + EPS
            if (
                task.remaining_fraction == 1.0
                and task.pending_migration_time == 0.0
                and not down
            ):
                # An unstarted task's rows depend on its type and these
                # three inputs only: memoised on the type, unpenalised.
                row_cache = task.task.row_cache
                key = (
                    task.current_resource,
                    task.running_non_preemptable,
                    task.started or charge_unstarted,
                )
                cached = row_cache.get(key)
                if cached is None:
                    cached = _unstarted_rows(task, charge_unstarted)
                    row_cache[key] = cached
                row_c, row_e, executable, max_c, row_f, order = cached
                penalised = max_c > threshold
            else:
                row_c, row_e, executable = cost_rows(
                    task, charge_unstarted=charge_unstarted, down=down
                )
                penalised = True
            if penalised:
                row_f = [
                    e + deadline_penalty if c > threshold else e + 0.0
                    for c, e in zip(row_c, row_e, strict=True)
                ]
                order = _preference(row_f, executable)
            rows_of[task.job_id] = (row_c, row_e, row_f, order)

        # One incremental EDF timeline per resource: placements insert,
        # IsSchedulable probes (no full replay per query).
        timelines = [
            Timeline(
                start_time=time, preemptable=platform.is_preemptable(i)
            )
            for i in resources
        ]

        def place(task: PlannedTask, resource: int, exec_time: float) -> None:
            if task.is_predicted:
                timelines[resource].insert(
                    task.job_id,
                    exec_time,
                    task.absolute_deadline,
                    arrival=context.ready_at(task),
                )
            else:
                timelines[resource].insert(
                    task.job_id,
                    exec_time,
                    task.absolute_deadline,
                    must_run_first=context.runs_first(task, resource),
                )

        mapping: dict[int, int] = {}
        unmapped = {task.job_id: task for task in tasks}

        if not self.remap_existing:
            # Pin already-mapped tasks to their current resource; their
            # schedulability is re-verified by every IsSchedulable call
            # on that resource (the timeline covers all tasks there).
            for task in tasks:
                if task.current_resource is None:
                    continue
                resource = task.current_resource
                exec_time = rows_of[task.job_id][0][resource]
                if exec_time == _INF:
                    raise ValueError(
                        f"job {task.job_id} mapped to resource {resource} "
                        "where it is not executable"
                    )
                mapping[task.job_id] = resource
                capacity[resource] -= exec_time
                place(task, resource, exec_time)
                del unmapped[task.job_id]
            for resource in resources:
                if len(timelines[resource]) and not timelines[
                    resource
                ].feasible():
                    return MappingDecision.infeasible()

        # Candidate lists (resources with capacity left, in preference
        # order), maintained incrementally: capacities only ever shrink,
        # and only the placed-on resource shrinks per round, so pruning
        # that one resource from every list reproduces the per-round
        # filter exactly.  ``max_exec[i]`` bounds every cpm still listed
        # under resource ``i``: while the capacity threshold stays at or
        # above it, a prune pass on ``i`` would remove nothing.
        candidates_of: dict[int, list[int]] = {}
        max_exec = [-_INF] * n
        # The regret order: a heap of (-regret, job_id); see the module
        # docstring for why its top is the task the scan would pick.
        # ``regret_key`` holds the live key of each unmapped task; heap
        # entries that disagree with it are stale.
        regret_key: dict[int, float] = {}
        limits = [c + EPS for c in capacity]
        for job_id in unmapped:
            row_c, _, row_f, order = rows_of[job_id]
            candidates = [i for i in order if row_c[i] <= limits[i]]
            for i in candidates:
                if row_c[i] > max_exec[i]:
                    max_exec[i] = row_c[i]
            candidates_of[job_id] = candidates
            regret_key[job_id] = _regret_key(row_f, candidates)
        heap = [(key, job_id) for job_id, key in regret_key.items()]
        heapify(heap)

        while regret_key:
            # Lines 7-23: pick the unmapped task with the largest regret.
            key, job_id = heappop(heap)
            while key != regret_key.get(job_id):
                key, job_id = heappop(heap)
            candidates = candidates_of.pop(job_id)
            if not candidates:
                return MappingDecision.infeasible()  # line 22: exit
            del regret_key[job_id]
            chosen = unmapped.pop(job_id)
            row_c, _, row_f, _ = rows_of[job_id]
            # Lines 24-34: place on the most desirable schedulable resource.
            for resource in candidates:
                exec_time = row_c[resource]
                if self._is_schedulable(
                    timelines[resource], context, chosen, resource, exec_time
                ):
                    break
            else:
                return MappingDecision.infeasible()  # line 32: exit
            mapping[job_id] = resource
            capacity[resource] -= exec_time
            place(chosen, resource, exec_time)
            if tracing:
                tracer.emit(
                    "heuristic-place",
                    time=time,
                    job_id=job_id,
                    resource=resource,
                    data=(
                        ("desirability", tuple(row_f)),
                        ("predicted", chosen.is_predicted),
                        (
                            "regret",
                            _INF  # line 14: a single candidate
                            if len(candidates) == 1
                            else row_f[candidates[1]] - row_f[candidates[0]],
                        ),
                    ),
                )
            # Prune the shrunk resource from the remaining candidates;
            # only a task that loses one of its first two candidates
            # changes its regret and needs a fresh heap entry.
            threshold = capacity[resource] + EPS
            if max_exec[resource] <= threshold:
                continue
            for other, candidates in candidates_of.items():
                if (
                    resource in candidates
                    and rows_of[other][0][resource] > threshold
                ):
                    position = candidates.index(resource)
                    del candidates[position]
                    if position < 2:
                        key = _regret_key(rows_of[other][2], candidates)
                        regret_key[other] = key
                        heappush(heap, (key, other))

        # The objective (``mapping_energy``), summed from the rows: the
        # same terms in the same order.
        energy = 0.0
        for task in tasks:
            energy += rows_of[task.job_id][1][mapping[task.job_id]]
        return MappingDecision(feasible=True, mapping=mapping, energy=energy)

    @staticmethod
    def _is_schedulable(
        timeline: Timeline,
        context: RMContext,
        task: PlannedTask,
        resource: int,
        exec_time: float,
    ) -> bool:
        """The paper's ``IsSchedulable(j*, i*)``.

        Probes the EDF timeline of ``resource`` (holding the tasks mapped
        there so far) with ``task`` added; other resources are unaffected
        by the placement (assignments only ever add work to one
        resource).
        """
        if task.is_predicted:
            return timeline.probe(
                task.job_id,
                exec_time,
                task.absolute_deadline,
                arrival=context.ready_at(task),
            )
        return timeline.probe(
            task.job_id,
            exec_time,
            task.absolute_deadline,
            must_run_first=context.runs_first(task, resource),
        )


def _unstarted_rows(task: PlannedTask, charge_unstarted: bool) -> _CachedRows:
    """The :attr:`TaskType.row_cache` entry of an unstarted task (full
    work, nothing pending, no resource down): its rows, the largest
    finite cpm, and the unpenalised ``f = energy + 0.0`` with its
    preference order."""
    row_c, row_e, executable = cost_rows(
        task, charge_unstarted=charge_unstarted, down=()
    )
    row_f = [e + 0.0 for e in row_e]
    return (
        tuple(row_c),
        tuple(row_e),
        tuple(executable),
        max(row_c[i] for i in executable),
        tuple(row_f),
        tuple(_preference(row_f, executable)),
    )


def _preference(row_f: _Row, executable: Sequence[int]) -> list[int]:
    """``executable`` (ascending) sorted by ``(f[i], i)``: a stable sort
    on ``f`` alone keeps ties in index order."""
    return sorted(executable, key=row_f.__getitem__)


def _regret_key(row_f: _Row, candidates: list[int]) -> float:
    """Heap key of a task: ``-regret``, with ``-inf`` for a task that must
    be placed now (one candidate) or cannot be placed (none)."""
    if len(candidates) < 2:
        return -_INF
    return row_f[candidates[0]] - row_f[candidates[1]]
