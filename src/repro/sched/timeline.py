"""Single-resource EDF timeline construction.

:func:`build_timeline` simulates one resource from an activation time
``t`` forward, given

* a set of *ready* jobs (all admitted tasks are ready at ``t``) and
* a set of *future* jobs (the predicted task(s), arriving later),

under work-conserving EDF.  On a preemptable resource a future arrival
with an earlier deadline preempts the running job.  On a non-preemptable
resource nothing is ever preempted and the currently executing job (if
any) runs first: a future arrival joins the EDF queue and is considered
only at job-completion boundaries (non-preemptive EDF) — it may run
before queued later-deadline jobs but never interrupts the one executing.
This reproduces the schedule semantics behind the paper's constraints
(3)-(14) and its GPU rules ("preemption caused by the predicted task is
considered except for nonpreemptable resources"):

* predicted task with the latest deadline -> starts at ``max(s_p, q_i)``
  (eqs. (4)/(5));
* predicted task arriving before the earlier-deadline jobs finish ->
  slots in after them with no preemption (eqs. (6)/(7));
* predicted task arriving later, on a preemptable resource -> preempts
  the running later-deadline job, splitting it into two chunks
  (eqs. (8)-(14)); on a non-preemptable resource -> waits for the
  completion boundary, then outranks queued later-deadline jobs.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from repro.model import EPS

__all__ = [
    "EPS",
    "ReadyJob",
    "FutureJob",
    "Chunk",
    "ResourceTimeline",
    "Timeline",
    "build_timeline",
]


@dataclass(frozen=True)
class ReadyJob:
    """A job that is ready to execute at the activation time.

    Attributes
    ----------
    job_id:
        Identifier, unique within one :func:`build_timeline` call.
    exec_time:
        Time the job still needs on *this* resource (``cpm[j,i]``:
        remaining WCET plus any migration overhead).
    deadline:
        Absolute deadline.
    must_run_first:
        True when the job is currently executing on this resource and the
        resource is non-preemptable: it must complete before anything else
        starts.  At most one ready job may set this.
    """

    job_id: int
    exec_time: float
    deadline: float
    must_run_first: bool = False

    def __post_init__(self) -> None:
        if self.exec_time <= 0:
            raise ValueError(
                f"job {self.job_id}: exec_time must be > 0, got {self.exec_time}"
            )


@dataclass(frozen=True)
class FutureJob:
    """A job that arrives after the activation time (the predicted task)."""

    job_id: int
    arrival: float
    exec_time: float
    deadline: float

    def __post_init__(self) -> None:
        if self.exec_time <= 0:
            raise ValueError(
                f"job {self.job_id}: exec_time must be > 0, got {self.exec_time}"
            )


@dataclass(frozen=True)
class Chunk:
    """A contiguous execution interval of one job."""

    job_id: int
    start: float
    end: float

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ResourceTimeline:
    """Result of :func:`build_timeline`.

    Attributes
    ----------
    chunks:
        Execution intervals in time order; a preempted job contributes
        multiple chunks.
    finish_times:
        Completion time of every job.
    feasible:
        True when every job finishes by its deadline (within :data:`EPS`).
    misses:
        Ids of jobs that miss their deadline, in completion order.
    makespan:
        Completion time of the last job (the activation time if there is
        no work).
    """

    chunks: tuple[Chunk, ...]
    finish_times: dict[int, float]
    feasible: bool
    misses: tuple[int, ...]
    makespan: float

    def chunks_of(self, job_id: int) -> tuple[Chunk, ...]:
        """All execution intervals of one job."""
        return tuple(c for c in self.chunks if c.job_id == job_id)

    def start_time(self, job_id: int) -> float:
        """First time the job executes."""
        for chunk in self.chunks:
            if chunk.job_id == job_id:
                return chunk.start
        raise KeyError(f"job {job_id} never executes")


@dataclass
class _JobState:
    remaining: float
    deadline: float
    arrived: bool
    future: bool = False


def build_timeline(
    ready_jobs: list[ReadyJob] | tuple[ReadyJob, ...],
    future_jobs: list[FutureJob] | tuple[FutureJob, ...] = (),
    *,
    start_time: float = 0.0,
    preemptable: bool = True,
) -> ResourceTimeline:
    """Simulate one resource under work-conserving EDF.

    Parameters
    ----------
    ready_jobs:
        Jobs ready at ``start_time`` (the admitted tasks mapped here).
    future_jobs:
        Jobs arriving later (the predicted task).  Arrivals before
        ``start_time`` are treated as ready.
    start_time:
        The RM activation time ``t``.
    preemptable:
        Whether future arrivals may preempt the running job (CPU: yes,
        GPU: no).

    Ties in deadlines are broken by ``job_id`` so the schedule is fully
    deterministic.
    """
    forced_ids = [j.job_id for j in ready_jobs if j.must_run_first]
    if len(forced_ids) > 1:
        raise ValueError(
            f"at most one job may be must_run_first, got {forced_ids}"
        )
    forced_id = forced_ids[0] if forced_ids else None
    if forced_id is not None and preemptable:
        # On a preemptable resource the running job can be paused, so the
        # flag is meaningless; ignore it for robustness.
        forced_id = None

    states: dict[int, _JobState] = {}
    for job in ready_jobs:
        if job.job_id in states:
            raise ValueError(f"duplicate job_id {job.job_id}")
        states[job.job_id] = _JobState(job.exec_time, job.deadline, arrived=True)
    pending = sorted(future_jobs, key=lambda j: (j.arrival, j.job_id))
    for job in pending:
        if job.job_id in states:
            raise ValueError(f"duplicate job_id {job.job_id}")
        states[job.job_id] = _JobState(
            job.exec_time,
            job.deadline,
            arrived=job.arrival <= start_time + EPS,
            future=True,
        )
    pending = [j for j in pending if not states[j.job_id].arrived]

    chunks: list[Chunk] = []
    finish_times: dict[int, float] = {}
    time = start_time
    # The EDF queue: (deadline, job_id) of every arrived job with work
    # left, kept sorted incrementally instead of rescanned per pick —
    # remaining work only ever hits zero at completions, and jobs only
    # join at arrivals, so the queue is cheap to maintain exactly.
    active = sorted(
        (state.deadline, job_id)
        for job_id, state in states.items()
        if state.arrived and state.remaining > EPS
    )
    n_pending = len(pending)
    next_pending = 0  # cursor into `pending` (no per-arrival list copies)

    def mark_arrivals(now: float) -> None:
        nonlocal next_pending
        while (
            next_pending < n_pending
            and pending[next_pending].arrival <= now + EPS
        ):
            job_id = pending[next_pending].job_id
            state = states[job_id]
            state.arrived = True
            if state.remaining > EPS:
                insort(active, (state.deadline, job_id))
            next_pending += 1

    def emit(job_id: int, start: float, end: float) -> None:
        if end <= start + EPS:
            return
        if chunks and chunks[-1].job_id == job_id and chunks[-1].end >= start - EPS:
            chunks[-1] = Chunk(job_id, chunks[-1].start, end)
        else:
            chunks.append(Chunk(job_id, start, end))

    mark_arrivals(time)
    while True:
        if not active:
            if next_pending >= n_pending:
                break
            time = max(time, pending[next_pending].arrival)
            mark_arrivals(time)
            continue
        # EDF pick; the forced job (non-preemptable resource) outranks it
        # while it still has work.
        if forced_id is not None and states[forced_id].remaining > EPS:
            current = forced_id
        else:
            current = active[0][1]
        state = states[current]
        end = time + state.remaining
        next_arrival = (
            pending[next_pending].arrival
            if next_pending < n_pending
            else None
        )
        interrupt = (
            next_arrival is not None
            and next_arrival < end - EPS
            and preemptable
        )
        if interrupt:
            # Run until the arrival, then re-evaluate EDF; the arrival
            # preempts only if its deadline is earlier (the queue head
            # decides).  The preempted job keeps remaining > EPS (the
            # arrival is strictly earlier than its completion), so it
            # stays in the queue.
            run_until = max(next_arrival, time)
            emit(current, time, run_until)
            state.remaining -= run_until - time
            time = run_until
            mark_arrivals(time)
            continue
        # Non-preemptable or no interfering arrival: run to completion.
        emit(current, time, end)
        state.remaining = 0.0
        finish_times[current] = end
        time = end
        del active[bisect_left(active, (state.deadline, current))]
        mark_arrivals(time)

    misses = tuple(
        job_id
        for job_id, finish in sorted(finish_times.items(), key=lambda kv: kv[1])
        if finish > states[job_id].deadline + EPS
    )
    makespan = max(finish_times.values(), default=start_time)
    return ResourceTimeline(
        chunks=tuple(chunks),
        finish_times=finish_times,
        feasible=not misses,
        misses=misses,
        makespan=makespan,
    )


class Timeline:
    """Incremental single-resource EDF timeline with a slack/feasibility
    cache.

    Maintains the *same* schedule semantics as :func:`build_timeline`
    under ``insert``/``remove``/``probe`` mutations, but answers
    feasibility probes from cached prefix finish times instead of
    replaying the whole resource per query.  This is the structure behind
    the heuristic's ``IsSchedulable``: an admission activation places
    jobs one by one, probing many (job, resource) pairs, and a full
    replay per probe is the dominant cost of the naive implementation.

    Cache design (see DESIGN.md §8 for the invalidation rules):

    * Ready jobs with ``exec_time > EPS`` form the *chain*: parallel
      arrays sorted by ``(deadline, job_id)`` holding execution times and
      cached sequential finish times (identical float-addition order to
      :func:`build_timeline`, so results are bit-identical).
    * A ``must_run_first`` job on a non-preemptable resource sits in
      front of the chain; on a preemptable resource the flag is recorded
      (for validation parity) but ignored, as in :func:`build_timeline`.
    * Jobs with ``exec_time <= EPS`` never get scheduled by the event
      loop (it only picks jobs with ``remaining > EPS``); they are kept
      for bookkeeping but excluded from the chain, mirroring that
      behaviour.
    * Future jobs that have effectively arrived
      (``arrival <= start_time + EPS``) behave exactly like ready jobs
      and join the chain.  *Pending* future arrivals make slack
      non-composable (a preemption can split a chunk; a non-preemptive
      completion boundary can reorder the queue), so any query on a
      timeline holding pending futures falls back to an authoritative
      :func:`build_timeline` replay, cached until the next mutation.

    Mutations are *suffix-dirty*: a chain edit at position ``p`` records
    ``p`` (keeping the minimum across stacked edits) and the next query
    re-accumulates only ``chain[p:]`` from the cached prefix finish —
    the float-addition order is identical to a full re-accumulation, so
    cached results stay bit-identical to :func:`build_timeline`.  Per-
    entry miss flags (invariant: ``_miss_count == sum(_missed)`` after
    every mutation and refresh) keep the feasibility count exact without
    rescanning the clean prefix; future/tiny bookkeeping edits never
    touch the chain cache at all.  A non-mutating ``probe`` likewise
    re-accumulates only the suffix at the hypothetical insertion point.

    A ready-only probe that succeeds *keeps* what it computed: the job's
    ``(job_id, exec_time, deadline)``, its insertion point and the
    finish times from there on.  An ``insert`` of exactly that job into
    the chain splices those finishes in, so the chain stays clean and
    the next query re-adds nothing.  The kept finishes are the sums a
    refresh would make, in the same order, and the probe has shown that
    none of them misses.  Every other mutation drops the kept state
    (``_mark_chain_dirty`` and ``_invalidate_refs`` clear it), so it
    never outlives the chain it was computed on.
    """

    __slots__ = (
        "_start",
        "_preemptable",
        "_jobs",
        "_keys",
        "_execs",
        "_finish",
        "_missed",
        "_futures",
        "_tiny",
        "_forced_id",
        "_forced_entry",
        "_forced_finish",
        "_forced_missed",
        "_miss_count",
        "_dirty_from",
        "_kept",
        "_ref",
        "_lists",
    )

    def __init__(
        self, *, start_time: float = 0.0, preemptable: bool = True
    ) -> None:
        self._start = start_time
        self._preemptable = preemptable
        # job_id -> (exec_time, deadline, arrival | None, must_run_first)
        self._jobs: dict[int, tuple[float, float, float | None, bool]] = {}
        self._keys: list[tuple[float, int]] = []  # (deadline, job_id)
        self._execs: list[float] = []
        self._finish: list[float] = []
        self._missed: list[bool] = []
        self._futures: dict[int, tuple[float, float, float]] = {}
        self._tiny: set[int] = set()
        self._forced_id: int | None = None
        self._forced_entry: tuple[int, float, float] | None = None
        self._forced_finish: float | None = None
        self._forced_missed = False
        self._miss_count = 0
        # First chain index whose cached finish/missed entries are stale
        # (None = clean).  0 additionally re-derives the forced job's
        # finish, the base of the chain.
        self._dirty_from: int | None = 0
        # The last feasible ready-only probe on the current chain:
        # (job_id, exec_time, deadline, pos, finishes from pos), or None.
        self._kept: tuple[int, float, float, int, list[float]] | None = None
        self._ref: ResourceTimeline | None = None
        self._lists: tuple[list[ReadyJob], list[FutureJob]] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def start_time(self) -> float:
        return self._start

    @property
    def preemptable(self) -> bool:
        return self._preemptable

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._jobs

    def job_ids(self) -> tuple[int, ...]:
        """All held job ids, in insertion-agnostic sorted order."""
        return tuple(sorted(self._jobs))

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert(
        self,
        job_id: int,
        exec_time: float,
        deadline: float,
        *,
        arrival: float | None = None,
        must_run_first: bool = False,
    ) -> None:
        """Add one job; ``arrival`` marks a future job (the predicted
        task), ``None`` a ready one.

        Raises ``ValueError`` on the same inputs :func:`build_timeline`
        rejects: non-positive execution time, duplicate ids, a second
        ``must_run_first`` job, or a forced *future* job.
        """
        if exec_time <= 0:
            raise ValueError(
                f"job {job_id}: exec_time must be > 0, got {exec_time}"
            )
        if job_id in self._jobs:
            raise ValueError(f"duplicate job_id {job_id}")
        if must_run_first:
            if arrival is not None:
                raise ValueError(
                    f"job {job_id}: a future job cannot be must_run_first"
                )
            if self._forced_id is not None:
                raise ValueError(
                    "at most one job may be must_run_first, got "
                    f"{[self._forced_id, job_id]}"
                )
            self._forced_id = job_id
        self._jobs[job_id] = (exec_time, deadline, arrival, must_run_first)
        if arrival is not None and arrival > self._start + EPS:
            self._futures[job_id] = (arrival, exec_time, deadline)
            self._invalidate_refs()
        elif exec_time <= EPS:
            self._tiny.add(job_id)
            self._invalidate_refs()
        elif must_run_first and not self._preemptable:
            self._forced_entry = (job_id, exec_time, deadline)
            self._mark_chain_dirty(0)
        else:
            key = (deadline, job_id)
            kept = self._kept
            if (
                kept is not None
                and kept[0] == job_id
                and kept[1] == exec_time
                and kept[2] == deadline
            ):
                # The probe of this very job on this very chain already
                # summed the suffix, with no miss: splice its finishes
                # in, and the chain stays clean.
                pos = kept[3]
                self._keys.insert(pos, key)
                self._execs.insert(pos, exec_time)
                self._finish[pos:] = kept[4]
                self._missed.insert(pos, False)
                self._invalidate_refs()
                return
            pos = bisect_left(self._keys, key)
            self._keys.insert(pos, key)
            self._execs.insert(pos, exec_time)
            # Placeholders keep the parallel arrays aligned; False is not
            # counted, preserving _miss_count == sum(_missed) until the
            # suffix refresh computes the real values.
            self._finish.insert(pos, 0.0)
            self._missed.insert(pos, False)
            self._mark_chain_dirty(pos)

    def remove(self, job_id: int) -> None:
        """Remove one job (``KeyError`` when absent)."""
        exec_time, deadline, arrival, must_run_first = self._jobs.pop(job_id)
        if must_run_first:
            self._forced_id = None
        if job_id in self._futures:
            del self._futures[job_id]
            self._invalidate_refs()
        elif job_id in self._tiny:
            self._tiny.discard(job_id)
            self._invalidate_refs()
        elif (
            self._forced_entry is not None
            and self._forced_entry[0] == job_id
        ):
            self._forced_entry = None
            self._mark_chain_dirty(0)
        else:
            pos = bisect_left(self._keys, (deadline, job_id))
            del self._keys[pos]
            del self._execs[pos]
            if self._missed[pos]:
                self._miss_count -= 1
            del self._finish[pos]
            del self._missed[pos]
            self._mark_chain_dirty(pos)

    def clear(self) -> None:
        """Drop every job."""
        self._jobs.clear()
        self._keys.clear()
        self._execs.clear()
        self._finish.clear()
        self._missed.clear()
        self._futures.clear()
        self._tiny.clear()
        self._forced_id = None
        self._forced_entry = None
        self._miss_count = 0
        self._mark_chain_dirty(0)

    def _mark_chain_dirty(self, pos: int) -> None:
        """Chain edited at ``pos``: everything from there is stale."""
        if self._dirty_from is None or pos < self._dirty_from:
            self._dirty_from = pos
        self._kept = None
        self._ref = None
        self._lists = None

    def _invalidate_refs(self) -> None:
        """Non-chain mutation (future/tiny bookkeeping): the ready-chain
        cache stays valid, only the reference replay and the kept probe
        are stale."""
        self._kept = None
        self._ref = None
        self._lists = None

    # ------------------------------------------------------------------
    # Cache refresh (ready-chain fast path)
    # ------------------------------------------------------------------

    def _base_finish(self) -> float:
        """Completion time of the forced job (or the start time)."""
        if self._forced_entry is None:
            return self._start
        return self._start + self._forced_entry[1]

    def _refresh(self) -> None:
        """Re-accumulate the stale suffix of the chain (O(suffix)).

        Starts from the cached prefix finish (the same partial sum a
        full left-to-right pass would have reached), so the sequential
        float-addition order — and with it bit-identity to
        :func:`build_timeline` — is preserved.
        """
        first = self._dirty_from
        if first is None:
            return
        if first == 0:
            if self._forced_entry is None:
                self._forced_finish = None
                self._forced_missed = False
                time = self._start
            else:
                _job_id, exec_time, deadline = self._forced_entry
                time = self._start + exec_time
                self._forced_finish = time
                self._forced_missed = time > deadline + EPS
        else:
            time = self._finish[first - 1]
        keys = self._keys
        execs = self._execs
        finish = self._finish
        missed = self._missed
        misses = self._miss_count
        for index in range(first, len(keys)):
            time = time + execs[index]
            finish[index] = time
            miss = time > keys[index][0] + EPS
            if miss != missed[index]:
                misses += 1 if miss else -1
                missed[index] = miss
        self._miss_count = misses
        self._dirty_from = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def feasible(self) -> bool:
        """Whether every scheduled job meets its deadline (within EPS);
        agrees exactly with ``build_timeline(...).feasible`` on the same
        job set."""
        if self._futures:
            return self.as_reference().feasible
        self._refresh()
        return self._miss_count == 0 and not self._forced_missed

    def probe(
        self,
        job_id: int,
        exec_time: float,
        deadline: float,
        *,
        arrival: float | None = None,
        must_run_first: bool = False,
    ) -> bool:
        """Feasibility of the current job set *plus* the given job,
        without mutating the timeline.

        Bit-identical to inserting the job into a fresh
        :func:`build_timeline` replay; the fast path touches only the
        suffix of the cached chain at the hypothetical insertion point.
        """
        if exec_time <= 0:
            raise ValueError(
                f"job {job_id}: exec_time must be > 0, got {exec_time}"
            )
        if job_id in self._jobs:
            raise ValueError(f"duplicate job_id {job_id}")
        if must_run_first and arrival is not None:
            raise ValueError(
                f"job {job_id}: a future job cannot be must_run_first"
            )
        if must_run_first and self._forced_id is not None:
            raise ValueError(
                "at most one job may be must_run_first, got "
                f"{[self._forced_id, job_id]}"
            )
        if self._futures or (
            arrival is not None and arrival > self._start + EPS
        ):
            if not must_run_first:
                fast = self._probe_one_future_fast(
                    job_id, exec_time, deadline, arrival
                )
                if fast is not None:
                    return fast
            return self._probe_reference(
                job_id,
                exec_time,
                deadline,
                arrival=arrival,
                must_run_first=must_run_first,
            )
        self._refresh()
        if self._miss_count > 0 or self._forced_missed:
            # Ready-only EDF: adding work never repairs a miss (finish
            # times are monotone in the job set).
            return False
        if exec_time <= EPS:
            return True  # never scheduled; nothing shifts
        if must_run_first and not self._preemptable:
            # The probe job runs first and shifts the whole chain.
            time = self._start + exec_time
            if time > deadline + EPS:
                return False
            for key, chain_exec in zip(self._keys, self._execs, strict=True):
                time = time + chain_exec
                if time > key[0] + EPS:
                    return False
            return True
        keys = self._keys
        execs = self._execs
        pos = bisect_left(keys, (deadline, job_id))
        time = self._finish[pos - 1] if pos else self._base_finish()
        time = time + exec_time
        if time > deadline + EPS:
            return False
        finishes = [time]
        for index in range(pos, len(keys)):
            time = time + execs[index]
            if time > keys[index][0] + EPS:
                return False
            finishes.append(time)
        # Kept for an insert of this job (see the class docstring).
        self._kept = (job_id, exec_time, deadline, pos, finishes)
        return True

    def finish_times(self) -> dict[int, float]:
        """Completion time of every scheduled job, in completion order
        (matches ``build_timeline(...).finish_times`` exactly)."""
        if self._futures:
            return dict(self.as_reference().finish_times)
        self._refresh()
        times: dict[int, float] = {}
        if self._forced_entry is not None:
            assert self._forced_finish is not None
            times[self._forced_entry[0]] = self._forced_finish
        for key, finish in zip(self._keys, self._finish, strict=True):
            times[key[1]] = finish
        return times

    def slack(self, job_id: int) -> float:
        """``deadline - finish`` of one scheduled job.

        Raises ``KeyError`` for unknown jobs and for jobs the scheduler
        never completes (``exec_time <= EPS``).
        """
        if job_id not in self._jobs:
            raise KeyError(f"job {job_id} not in timeline")
        finish = self.finish_times()
        if job_id not in finish:
            raise KeyError(f"job {job_id} never finishes")
        return self._jobs[job_id][1] - finish[job_id]

    def min_slack(self) -> float:
        """Smallest ``deadline - finish`` over all scheduled jobs
        (``inf`` when nothing is scheduled); negative below ``-EPS``
        exactly when the timeline is infeasible."""
        finish = self.finish_times()
        if not finish:
            return float("inf")
        return min(
            self._jobs[job_id][1] - end for job_id, end in finish.items()
        )

    def as_reference(self) -> ResourceTimeline:
        """Authoritative :func:`build_timeline` replay of the current job
        set (cached until the next mutation)."""
        if self._ref is None:
            ready, future = self._job_lists()
            self._ref = build_timeline(
                ready,
                future,
                start_time=self._start,
                preemptable=self._preemptable,
            )
        return self._ref

    # ------------------------------------------------------------------
    # Reference fallback plumbing
    # ------------------------------------------------------------------

    def _job_lists(self) -> tuple[list[ReadyJob], list[FutureJob]]:
        """The current job set as build_timeline inputs (cached until the
        next mutation; callers must not mutate the returned lists)."""
        if self._lists is None:
            ready: list[ReadyJob] = []
            future: list[FutureJob] = []
            for job_id, (exec_time, deadline, arrival, forced) in sorted(
                self._jobs.items()
            ):
                if arrival is None:
                    ready.append(
                        ReadyJob(
                            job_id, exec_time, deadline, must_run_first=forced
                        )
                    )
                else:
                    future.append(
                        FutureJob(job_id, arrival, exec_time, deadline)
                    )
            self._lists = (ready, future)
        return self._lists

    def _probe_one_future_fast(
        self,
        job_id: int,
        exec_time: float,
        deadline: float,
        arrival: float | None,
    ) -> bool | None:
        """Exact probe for job sets holding exactly one pending future.

        Covers the two shapes the admission loop hammers: probing the
        predicted (future) job against a futures-free chain, and probing
        a ready job against a chain holding one pending future.  A single
        arrival cannot cascade — once it is in the queue no further event
        reorders the EDF pick — so :func:`build_timeline`'s event loop
        collapses to three linear phases over the cached parallel arrays:
        drain ready work until the arrival, slot the future at its EDF
        position, accumulate the displaced suffix.  Every float operation
        below mirrors the replay's (same additions, same order, same
        ``EPS`` comparisons), so the boolean is bit-identical.  Returns
        ``None`` when the job set is outside this proof (several
        futures, tiny executions); the caller falls back to the
        authoritative replay.  A forced (``must_run_first``) job *is*
        covered: on a non-preemptable resource it runs to completion
        before anything else — arrivals only mark at completion
        boundaries there — so it merely shifts the chain base to
        :meth:`_base_finish`; on a preemptable resource the flag is
        ignored and the job sits in the chain, exactly as in the replay.

        The walk checks every chain job's deadline itself, so it needs no
        refreshed chain; only the forced job, which it never visits, is
        checked up front.  There is deliberately no "the ready chain
        already misses, so the superset misses too" exit.  That holds
        for ready-only EDF, where adding work only adds terms to the same
        sums, but not here: when the arrival preempts a job, the job's
        finish becomes ``a + (exec - (a - t0))``, which can round one ulp
        below ``t0 + exec``.  A chain whose job misses by that ulp on its
        own then meets its deadline in the replay, so such an exit would
        refuse a feasible probe.
        """
        if exec_time <= EPS:
            return None
        start = self._start
        if arrival is not None and arrival > start + EPS:
            if self._futures:
                return None  # two pending futures: outside the proof
            future = (arrival, exec_time, deadline, job_id)
            ready = None
        else:
            if len(self._futures) != 1:
                return None
            ((f_id, (f_arrival, f_exec, f_deadline)),) = self._futures.items()
            if f_exec <= EPS:
                return None  # never scheduled; rare enough for the replay
            future = (f_arrival, f_exec, f_deadline, f_id)
            ready = (deadline, job_id, exec_time)
        forced = self._forced_entry
        if forced is not None and self._start + forced[1] > forced[2] + EPS:
            return False  # the forced job runs first and misses alone
        jobs = list(zip(self._keys, self._execs))
        if ready is not None:
            rkey = (ready[0], ready[1])
            jobs.insert(bisect_left(self._keys, rkey), (rkey, ready[2]))
        a, f_exec, f_deadline, f_id = future
        fkey = (f_deadline, f_id)
        time = self._base_finish()
        index = 0
        n = len(jobs)
        # Phase 1: drain ready work until the future arrives.
        while index < n:
            if a <= time + EPS:
                break  # joins the queue at this completion boundary
            key, chain_exec = jobs[index]
            end = time + chain_exec
            if self._preemptable and a < end - EPS:
                # The arrival splits the running job (the replay's
                # interrupt branch: run until ``a``, then re-pick EDF).
                remaining = chain_exec - (a - time)
                time = a
                if fkey < key:
                    time = time + f_exec
                    if time > f_deadline + EPS:
                        return False
                    time = time + remaining
                    if time > key[0] + EPS:
                        return False
                    index += 1
                    # The future already completed; only the suffix
                    # of the chain is displaced (by its execution).
                    while index < n:
                        key, chain_exec = jobs[index]
                        time = time + chain_exec
                        if time > key[0] + EPS:
                            return False
                        index += 1
                    return True
                # Later-deadline arrival: the split job runs on to
                # completion, then the future is in the queue.
                time = time + remaining
                if time > key[0] + EPS:
                    return False
                index += 1
                break
            time = end
            if time > key[0] + EPS:
                return False
            index += 1
        else:
            if a > time + EPS:
                time = a  # idle gap: work-conserving jump to the arrival
        # Phase 2: the future is queued; earlier-deadline jobs first.
        while index < n and jobs[index][0] < fkey:
            key, chain_exec = jobs[index]
            time = time + chain_exec
            if time > key[0] + EPS:
                return False
            index += 1
        time = time + f_exec
        if time > f_deadline + EPS:
            return False
        # Phase 3: the displaced suffix.
        while index < n:
            key, chain_exec = jobs[index]
            time = time + chain_exec
            if time > key[0] + EPS:
                return False
            index += 1
        return True

    def _probe_reference(
        self,
        job_id: int,
        exec_time: float,
        deadline: float,
        *,
        arrival: float | None,
        must_run_first: bool,
    ) -> bool:
        ready, future = self._job_lists()
        if arrival is None:
            ready = [
                *ready,
                ReadyJob(
                    job_id, exec_time, deadline, must_run_first=must_run_first
                ),
            ]
        else:
            future = [
                *future,
                FutureJob(job_id, arrival, exec_time, deadline),
            ]
        return build_timeline(
            ready,
            future,
            start_time=self._start,
            preemptable=self._preemptable,
        ).feasible

    @classmethod
    def from_jobs(
        cls,
        ready_jobs: list[ReadyJob] | tuple[ReadyJob, ...],
        future_jobs: list[FutureJob] | tuple[FutureJob, ...] = (),
        *,
        start_time: float = 0.0,
        preemptable: bool = True,
    ) -> "Timeline":
        """Build a timeline holding the given jobs (test convenience)."""
        timeline = cls(start_time=start_time, preemptable=preemptable)
        for job in ready_jobs:
            timeline.insert(
                job.job_id,
                job.exec_time,
                job.deadline,
                must_run_first=job.must_run_first,
            )
        for job in future_jobs:
            timeline.insert(
                job.job_id, job.exec_time, job.deadline, arrival=job.arrival
            )
        return timeline
