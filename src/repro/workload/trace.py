"""Trace container: a task set plus a request stream.

A :class:`Trace` is the unit of experimentation: the simulator replays one
trace through one resource manager.  Traces serialise to JSON so generated
workloads can be archived and shared.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from repro.model.request import Request
from repro.model.task import NOT_EXECUTABLE, TaskType
from repro.util.atomicio import atomic_write_text

__all__ = ["Trace", "TraceFormatError", "TraceStats"]


class TraceFormatError(ValueError):
    """A serialised trace failed structural validation on load.

    Raised (instead of a raw ``KeyError``/``TypeError``/``JSONDecodeError``)
    for truncated or corrupted JSON, missing or mistyped fields,
    out-of-range values, and duplicate request arrival times — so callers
    reading untrusted trace files get one catchable, descriptive error
    type.
    """


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace (used for reporting and calibration)."""

    n_requests: int
    n_task_types: int
    mean_interarrival: float
    span: float
    mean_relative_deadline: float
    energy_demand: float
    """Sum over requests of the triggered task's mean energy across
    resources.  This is the normaliser for Fig. 3's 'normalised energy'
    (see DESIGN.md, semantics item 9)."""


class Trace:
    """A task set together with the request stream that exercises it.

    Parameters
    ----------
    tasks:
        The task types; ``requests[i].type_id`` indexes into this list.
    requests:
        Requests sorted by (non-decreasing) arrival time.
    group:
        Optional label, e.g. ``"VT"`` or ``"LT"``.
    seed:
        The seed the trace was generated from, for provenance.
    """

    def __init__(
        self,
        tasks: Sequence[TaskType],
        requests: Sequence[Request],
        *,
        group: str = "",
        seed: int | None = None,
    ) -> None:
        tasks = tuple(tasks)
        requests = tuple(requests)
        if not tasks:
            raise ValueError("a trace needs at least one task type")
        n_resources = tasks[0].n_resources
        for task in tasks:
            if task.n_resources != n_resources:
                raise ValueError(
                    "all task types in a trace must cover the same resources"
                )
        for prev, nxt in zip(requests, requests[1:], strict=False):
            if nxt.arrival < prev.arrival:
                raise ValueError(
                    f"requests must be sorted by arrival "
                    f"({prev.index}@{prev.arrival} before {nxt.index}@{nxt.arrival})"
                )
        for position, request in enumerate(requests):
            if request.index != position:
                raise ValueError(
                    f"request at position {position} has index {request.index}"
                )
            if not 0 <= request.type_id < len(tasks):
                raise ValueError(
                    f"request {position} references unknown task type "
                    f"{request.type_id}"
                )
        self.tasks = tasks
        self.requests = requests
        self.group = group
        self.seed = seed

    @property
    def n_resources(self) -> int:
        """Number of platform resources the task set was generated for."""
        return self.tasks[0].n_resources

    def task_of(self, request: Request) -> TaskType:
        """The task type triggered by ``request``."""
        return self.tasks[request.type_id]

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, index: int) -> Request:
        return self.requests[index]

    def stats(self) -> TraceStats:
        """Compute summary statistics (see :class:`TraceStats`)."""
        if not self.requests:
            return TraceStats(0, len(self.tasks), 0.0, 0.0, 0.0, 0.0)
        arrivals = [r.arrival for r in self.requests]
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:], strict=False)]
        mean_gap = sum(gaps) / len(gaps) if gaps else 0.0
        mean_deadline = sum(r.deadline for r in self.requests) / len(self.requests)
        demand = sum(self.task_of(r).mean_energy() for r in self.requests)
        return TraceStats(
            n_requests=len(self.requests),
            n_task_types=len(self.tasks),
            mean_interarrival=mean_gap,
            span=arrivals[-1] - arrivals[0],
            mean_relative_deadline=mean_deadline,
            energy_demand=demand,
        )

    def mean_interarrival(self) -> float:
        """Mean gap between consecutive arrivals (0 for < 2 requests)."""
        return self.stats().mean_interarrival

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe dictionary representation."""
        def encode(v: float) -> float | str:
            return "inf" if math.isinf(v) else v

        return {
            "group": self.group,
            "seed": self.seed,
            "tasks": [
                {
                    "type_id": t.type_id,
                    "name": t.name,
                    "wcet": [encode(c) for c in t.wcet],
                    "energy": [encode(e) for e in t.energy],
                    "migration_time": [list(row) for row in t.migration_time],
                    "migration_energy": [list(row) for row in t.migration_energy],
                }
                for t in self.tasks
            ],
            "requests": [
                {
                    "index": r.index,
                    "arrival": r.arrival,
                    "type_id": r.type_id,
                    "deadline": r.deadline,
                }
                for r in self.requests
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        """Inverse of :meth:`to_dict`.

        Raises :class:`TraceFormatError` on structurally invalid input
        (missing/mistyped fields, non-finite or out-of-range values,
        duplicate request arrival times) instead of leaking raw
        ``KeyError``/``TypeError``.
        """
        def decode(v: float | str) -> float:
            return NOT_EXECUTABLE if v == "inf" else float(v)

        if not isinstance(data, dict):
            raise TraceFormatError(
                f"trace document must be a JSON object, "
                f"got {type(data).__name__}"
            )
        for key in ("tasks", "requests"):
            if not isinstance(data.get(key), list):
                raise TraceFormatError(
                    f"trace document needs a {key!r} list "
                    f"(truncated or corrupted file?)"
                )
        tasks = []
        for position, t in enumerate(data["tasks"]):
            try:
                tasks.append(
                    TaskType(
                        type_id=t["type_id"],
                        name=t.get("name", ""),
                        wcet=tuple(decode(c) for c in t["wcet"]),
                        energy=tuple(decode(e) for e in t["energy"]),
                        migration_time=tuple(
                            tuple(row) for row in t["migration_time"]
                        ),
                        migration_energy=tuple(
                            tuple(row) for row in t["migration_energy"]
                        ),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(
                    f"task {position}: {type(exc).__name__}: {exc}"
                ) from exc
        requests = []
        for position, r in enumerate(data["requests"]):
            try:
                request = Request(
                    index=int(r["index"]),
                    arrival=float(r["arrival"]),
                    type_id=int(r["type_id"]),
                    deadline=float(r["deadline"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(
                    f"request {position}: {type(exc).__name__}: {exc}"
                ) from exc
            if requests and request.arrival == requests[-1].arrival:
                raise TraceFormatError(
                    f"request {position}: duplicate arrival time "
                    f"{request.arrival} (requests {requests[-1].index} and "
                    f"{request.index})"
                )
            requests.append(request)
        try:
            return cls(
                tasks,
                requests,
                group=data.get("group", ""),
                seed=data.get("seed"),
            )
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(str(exc)) from exc

    def save(self, path: str | Path) -> None:
        """Write the trace to ``path`` as JSON (atomically)."""
        atomic_write_text(path, json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace previously written by :meth:`save`.

        Raises :class:`TraceFormatError` for unreadable JSON (e.g. a
        file truncated by a crash) or a structurally invalid document.
        """
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{path}: not valid JSON (truncated or corrupted?): {exc}"
            ) from exc
        try:
            return cls.from_dict(data)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}: {exc}") from exc

    def __eq__(self, other: object) -> bool:
        """Structural equality: same tasks, requests, group and seed.

        Exact (float-by-float), so ``Trace.from_dict(t.to_dict()) == t``
        holds for every valid trace — the round-trip contract pinned by
        the workload I/O property tests.
        """
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.tasks == other.tasks
            and self.requests == other.requests
            and self.group == other.group
            and self.seed == other.seed
        )

    __hash__ = None  # type: ignore[assignment]  # mutable container semantics

    def __repr__(self) -> str:
        label = f" group={self.group}" if self.group else ""
        return (
            f"Trace({len(self.requests)} requests, {len(self.tasks)} types,"
            f"{label})"
        )
