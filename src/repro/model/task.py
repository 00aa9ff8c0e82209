"""Task types: per-resource WCET, energy and migration overheads.

Sec. 2 of the paper characterises each task ``tau_j`` by

* worst-case execution time ``c[j,i]`` on each resource ``r_i``;
* average energy consumption ``e[j,i]`` on each resource;
* migration overheads ``cm[j,k,i]`` (time) and ``em[j,k,i]`` (energy) paid
  when the task moves from resource ``r_k`` to ``r_i``.

A task need not be executable on every resource; the paper marks such
pairs with "specific dummy values" — here the sentinel
:data:`NOT_EXECUTABLE` (``math.inf``), which naturally dominates every
deadline comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = ["NOT_EXECUTABLE", "TaskType"]

NOT_EXECUTABLE: float = math.inf
"""Sentinel WCET/energy for (task, resource) pairs where the task cannot run."""


def _as_matrix(
    values: object, n: int, name: str
) -> tuple[tuple[float, ...], ...]:
    """Normalise a scalar / vector / matrix into an ``n x n`` float matrix.

    * a scalar broadcasts to every off-diagonal entry (diagonal is 0);
    * an ``n x n`` nested sequence is taken as-is (diagonal forced to 0).
    """
    if isinstance(values, (int, float)):
        scalar = float(values)
        if scalar < 0:
            raise ValueError(f"{name} must be >= 0, got {scalar}")
        return tuple(
            tuple(0.0 if k == i else scalar for i in range(n)) for k in range(n)
        )
    rows = [tuple(float(v) for v in row) for row in values]  # type: ignore[union-attr]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"{name} must be an {n}x{n} matrix")
    for k, row in enumerate(rows):
        for i, v in enumerate(row):
            if v < 0:
                raise ValueError(f"{name}[{k}][{i}] must be >= 0, got {v}")
    return tuple(
        tuple(0.0 if k == i else rows[k][i] for i in range(n)) for k in range(n)
    )


@lru_cache(maxsize=8192)
def _finite_mean(values: tuple[float, ...]) -> float:
    """Mean of the finite entries (cached: WCET/energy vectors repeat
    across the requests of a trace, and these aggregates sit on the
    normalisation path of every simulation)."""
    finite = [v for v in values if math.isfinite(v)]
    return sum(finite) / len(finite)


@lru_cache(maxsize=8192)
def _finite_min(values: tuple[float, ...]) -> float:
    """Minimum of the finite entries (cached, see :func:`_finite_mean`)."""
    return min(v for v in values if math.isfinite(v))


@dataclass(frozen=True)
class TaskType:
    """A reusable task definition (one of the paper's ``L`` task types).

    Attributes
    ----------
    type_id:
        Identifier of the type within its task set.
    wcet:
        ``wcet[i]`` is the worst-case execution time on resource ``i``;
        :data:`NOT_EXECUTABLE` where the task cannot run.
    energy:
        ``energy[i]`` is the average energy consumed by a full execution on
        resource ``i``; :data:`NOT_EXECUTABLE` where the task cannot run.
    migration_time:
        ``migration_time[k][i]`` = time overhead ``cm[j,k,i]`` for moving
        from resource ``k`` to ``i``.  Constructors also accept a scalar,
        broadcast to all off-diagonal pairs.
    migration_energy:
        ``migration_energy[k][i]`` = energy overhead ``em[j,k,i]``;
        same conventions.
    name:
        Optional label for reporting.
    row_cache:
        Scratch table of the heuristic RM (:mod:`repro.core.heuristic`):
        the :func:`~repro.core.context.cost_rows` of an unstarted task of
        this type, keyed by its current resource, whether it runs
        non-preemptively, and whether a move would be charged (started,
        or the policy charges unstarted tasks); filled on first use.
        Derived data only, so it takes no part in ``==``, ``hash``,
        ``repr`` or pickling.
    """

    type_id: int
    wcet: tuple[float, ...]
    energy: tuple[float, ...]
    migration_time: tuple[tuple[float, ...], ...] = field(default=())
    migration_energy: tuple[tuple[float, ...], ...] = field(default=())
    name: str = ""
    row_cache: dict[tuple[int | None, bool, bool], tuple] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        wcet = tuple(float(v) for v in self.wcet)
        energy = tuple(float(v) for v in self.energy)
        if len(wcet) == 0:
            raise ValueError("wcet vector must be non-empty")
        if len(wcet) != len(energy):
            raise ValueError(
                f"wcet has {len(wcet)} entries but energy has {len(energy)}"
            )
        n = len(wcet)
        for i, (c, e) in enumerate(zip(wcet, energy, strict=True)):
            executable = math.isfinite(c)
            if executable != math.isfinite(e):
                raise ValueError(
                    f"resource {i}: wcet and energy must both be finite or "
                    f"both NOT_EXECUTABLE (got c={c}, e={e})"
                )
            if executable and (c <= 0 or e < 0):
                raise ValueError(
                    f"resource {i}: need wcet > 0 and energy >= 0, got ({c}, {e})"
                )
        if not any(math.isfinite(c) for c in wcet):
            raise ValueError("a task must be executable on at least one resource")
        object.__setattr__(self, "wcet", wcet)
        object.__setattr__(self, "energy", energy)
        mt = self.migration_time if self.migration_time != () else 0.0
        me = self.migration_energy if self.migration_energy != () else 0.0
        object.__setattr__(self, "migration_time", _as_matrix(mt, n, "migration_time"))
        object.__setattr__(
            self, "migration_energy", _as_matrix(me, n, "migration_energy")
        )

    def __getstate__(self) -> dict[str, object]:
        """Pickle without :attr:`row_cache` (it refills on first use)."""
        return {**self.__dict__, "row_cache": {}}

    @property
    def n_resources(self) -> int:
        return len(self.wcet)

    def executable_on(self, resource: int) -> bool:
        """Whether this task can run on ``resource`` at all."""
        return math.isfinite(self.wcet[resource])

    @property
    def executable_resources(self) -> tuple[int, ...]:
        """Indices of resources this task can run on."""
        return tuple(
            i for i, c in enumerate(self.wcet) if math.isfinite(c)
        )

    def mean_wcet(self) -> float:
        """Average WCET over the resources the task is executable on."""
        return _finite_mean(self.wcet)

    def mean_energy(self) -> float:
        """Average energy over the resources the task is executable on."""
        return _finite_mean(self.energy)

    def min_wcet(self) -> float:
        """Fastest possible execution time across resources."""
        return _finite_min(self.wcet)

    def min_energy(self) -> float:
        """Most efficient possible energy across resources."""
        return _finite_min(self.energy)

    def cm(self, src: int, dst: int) -> float:
        """Migration *time* overhead ``cm[j,src,dst]``."""
        return self.migration_time[src][dst]

    def em(self, src: int, dst: int) -> float:
        """Migration *energy* overhead ``em[j,src,dst]``."""
        return self.migration_energy[src][dst]

    def __repr__(self) -> str:
        label = self.name or f"type{self.type_id}"
        return f"TaskType({label}, wcet={self.wcet})"
