"""A numpy struct-of-arrays mirror of the EDF :class:`Timeline` probe.

:class:`VectorTimeline` keeps the ready chain as parallel numpy arrays
(sorted deadlines, execution times, job ids) instead of Python lists,
and answers *batches* of feasibility probes at once.  It is a standalone
primitive: the simulator and the admission server use :class:`Timeline`.

Exactness contract: every answer is bit-identical to
:meth:`repro.sched.timeline.Timeline.probe` on the same chain.  The
sequential EDF finish-time fold ``time = time + exec`` is reproduced
with ``np.add.accumulate`` (an ordered left fold — numpy does not
reassociate ``accumulate``, unlike ``reduce``); probes that would land
*inside* the chain (and therefore shift a suffix whose float folds must
be replayed term-by-term) fall back to the scalar mirror, so the
vectorised fast path only ever answers append-at-end probes — the hot
case in admission, where the new deadline dominates the chain.

The class intentionally supports only the preemptable, no-futures,
no-forced-job subset the admission fast path exercises;
:class:`~repro.sched.timeline.Timeline` remains the general reference.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

import numpy as np

from repro.sched.timeline import EPS

__all__ = ["VectorTimeline"]


class VectorTimeline:
    """Batched EDF feasibility probes over struct-of-arrays state."""

    __slots__ = (
        "_start",
        "_deadlines",
        "_execs",
        "_job_ids",
        "_finish",
        "_missed",
    )

    def __init__(
        self,
        jobs: Iterable[tuple[int, float, float]] = (),
        *,
        start_time: float = 0.0,
    ) -> None:
        """Build from ``(job_id, exec_time, deadline)`` triples.

        Jobs are ordered EDF — by ``(deadline, job_id)`` — exactly like
        the reference timeline's key order.
        """
        entries = sorted(
            ((deadline, job_id, exec_time)
             for job_id, exec_time, deadline in jobs)
        )
        for deadline, job_id, exec_time in entries:
            if exec_time <= 0:
                raise ValueError(
                    f"exec_time must be > 0, got {exec_time} for job {job_id}"
                )
        self._start = float(start_time)
        self._deadlines = np.array(
            [entry[0] for entry in entries], dtype=np.float64
        )
        self._job_ids = np.array(
            [entry[1] for entry in entries], dtype=np.int64
        )
        self._execs = np.array(
            [entry[2] for entry in entries], dtype=np.float64
        )
        # Ordered left fold: finish[0] = start + exec[0],
        # finish[i] = finish[i-1] + exec[i] — np.add.accumulate keeps
        # this exact order, matching Timeline._refresh bit-for-bit.
        if len(entries):
            chain = np.empty(len(entries) + 1, dtype=np.float64)
            chain[0] = self._start
            chain[1:] = self._execs
            self._finish = np.add.accumulate(chain)[1:]
            self._missed = bool(
                np.any(self._finish > self._deadlines + EPS)
            )
        else:
            self._finish = np.empty(0, dtype=np.float64)
            self._missed = False

    def __len__(self) -> int:
        return len(self._execs)

    @property
    def start_time(self) -> float:
        return self._start

    def feasible(self) -> bool:
        """Whether every job in the chain meets its deadline."""
        return not self._missed

    def finish_times(self) -> np.ndarray:
        """EDF finish time per job, in chain order (copy)."""
        return self._finish.copy()

    def _base_finish(self) -> float:
        return self._start

    def probe(self, job_id: int, exec_time: float, deadline: float) -> bool:
        """Scalar probe — the exact mirror of ``Timeline.probe``.

        Same float operations in the same order, including the
        tiny-execution early accept and the suffix replay.
        """
        if exec_time <= 0:
            raise ValueError(f"exec_time must be > 0, got {exec_time}")
        if self._missed:
            return False
        if exec_time <= EPS:
            return True
        keys = list(zip(self._deadlines.tolist(), self._job_ids.tolist()))
        pos = bisect_left(keys, (deadline, job_id))
        time = float(self._finish[pos - 1]) if pos else self._base_finish()
        time = time + exec_time
        if time > deadline + EPS:
            return False
        execs = self._execs.tolist()
        deadlines = self._deadlines.tolist()
        for index in range(pos, len(execs)):
            time = time + execs[index]
            if time > deadlines[index] + EPS:
                return False
        return True

    def probe_batch(
        self,
        job_ids: Sequence[int] | np.ndarray,
        exec_times: Sequence[float] | np.ndarray,
        deadlines: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Answer many independent probes; returns a bool array.

        Each probe asks "could this job join the current chain", exactly
        as if it were the only addition — probes do not see each other.
        Append-at-end probes (EDF position past every existing key) are
        answered vectorised; interior probes fall back to the exact
        scalar mirror.
        """
        ids = np.asarray(job_ids, dtype=np.int64)
        execs = np.asarray(exec_times, dtype=np.float64)
        dls = np.asarray(deadlines, dtype=np.float64)
        if not (len(ids) == len(execs) == len(dls)):
            raise ValueError("probe_batch arrays must have equal length")
        if np.any(execs <= 0):
            raise ValueError("exec_time must be > 0 for every probe")
        out = np.zeros(len(ids), dtype=bool)
        if self._missed:
            return out
        tiny = execs <= EPS
        out[tiny] = True
        n = len(self._execs)
        if n == 0:
            rest = ~tiny
            time = self._base_finish() + execs[rest]
            out[rest] = ~(time > dls[rest] + EPS)
            return out
        positions = np.searchsorted(self._deadlines, dls, side="left")
        # Deadline ties resolve by job id (the reference key order).
        # A probe deadline equal to an existing one may still sort past
        # it when the probe's job id is larger.
        tie = (positions < n) & (
            self._deadlines[np.minimum(positions, n - 1)] == dls
        )
        for index in np.nonzero(tie)[0]:
            pos = int(positions[index])
            while (
                pos < n
                and self._deadlines[pos] == dls[index]
                and self._job_ids[pos] < ids[index]
            ):
                pos += 1
            positions[index] = pos
        at_end = (positions == n) & ~tiny
        time = self._finish[-1] + execs[at_end]
        out[at_end] = ~(time > dls[at_end] + EPS)
        interior = ~at_end & ~tiny
        for index in np.nonzero(interior)[0]:
            out[index] = self.probe(
                int(ids[index]), float(execs[index]), float(dls[index])
            )
        return out
