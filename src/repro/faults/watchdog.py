"""A watchdog wrapping the primary mapping solver.

Exact solvers are the fragile part of the RM: HiGHS can hang on a
pathological activation or end a solve without an answer (the MILP RM
then raises rather than reject the arrival), and an injected
:class:`~repro.faults.plan.SolverFault` deliberately simulates both.
:class:`SolverWatchdog` keeps the admission protocol alive through all
of it: any primary-solver fault — injected or real — degrades to the
(deadline-aware, polynomial-time) fallback strategy instead of crashing
the run, and every degradation is buffered for the simulator to attach
to the :class:`~repro.sim.result.SimulationResult` as
:class:`~repro.faults.events.DegradationEvent` records.

Determinism: injected faults are resolved purely from the activation
time against the plan's windows, so replays are bit-identical.  The
optional wall-clock budget (``wall_budget``) only *observes* by default
(it records ``solver-overrun`` events); enforcement
(``enforce_budget=True``) substitutes the fallback's decision and is
therefore machine-dependent — leave it off when reproducibility matters
more than latency.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.core.base import MappingDecision, MappingStrategy
from repro.core.context import RMContext
from repro.obs.events import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

__all__ = ["SolverWatchdog"]


class SolverWatchdog(MappingStrategy):
    """Degrade primary-solver faults to a fallback strategy.

    Parameters
    ----------
    primary:
        The strategy being guarded (typically ``milp`` or ``exact``).
    fallback:
        The strategy substituted when the primary faults (typically the
        paper's ``heuristic``); ``None`` means no fallback — a faulting
        primary then yields an infeasible decision (the arrival is
        rejected, previously admitted jobs keep their feasible plan).
    plan:
        Optional :class:`~repro.faults.plan.FaultPlan` whose solver
        fault windows are injected deterministically: inside a window
        the primary is not called at all (a ``"timeout"`` or
        ``"exception"`` is simulated) and the fallback solves instead.
    wall_budget:
        Optional wall-clock budget in seconds for one primary solve.
        Exceeding it records a ``solver-overrun`` event; with
        ``enforce_budget=True`` the overrun solve's decision is
        discarded and the fallback's used instead (non-deterministic
        across machines — off by default).
    """

    def __init__(
        self,
        primary: MappingStrategy,
        fallback: MappingStrategy | None = None,
        *,
        plan: "FaultPlan | None" = None,
        wall_budget: float | None = None,
        enforce_budget: bool = False,
    ) -> None:
        if wall_budget is not None and wall_budget <= 0:
            raise ValueError(f"wall_budget must be > 0, got {wall_budget}")
        self.primary = primary
        self.fallback = fallback
        self.plan = plan
        self.wall_budget = wall_budget
        self.enforce_budget = enforce_budget
        self.name = f"watchdog({primary.name})"
        self._events: list[tuple[str, str]] = []

    @property
    def tracer(self) -> Tracer:
        """The primary's tracer; setting it installs the tracer on the
        primary and the fallback alike, so a traced run sees the
        decision events of whichever strategy solves."""
        return self.primary.tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        self.primary.tracer = tracer
        if self.fallback is not None:
            self.fallback.tracer = tracer

    def drain_events(self) -> list[tuple[str, str]]:
        """Return and clear the buffered ``(kind, detail)`` degradations.

        The simulator calls this after every admission decision and
        converts the entries into timestamped
        :class:`~repro.faults.events.DegradationEvent` records.
        """
        events = self._events
        self._events = []
        return events

    def solve(self, context: RMContext) -> MappingDecision:
        """Solve via the primary, degrading on any fault (see class doc)."""
        injected = (
            self.plan.solver_fault_at(context.time)
            if self.plan is not None
            else None
        )
        if injected is not None:
            self._events.append(
                (
                    f"solver-{injected}",
                    f"injected {injected} on {self.primary.name}",
                )
            )
            return self._solve_fallback(context)
        started = time.perf_counter() if self.wall_budget is not None else 0.0
        try:
            decision = self.primary.solve(context)
        except Exception as exc:  # noqa: BLE001 - the watchdog's entire job
            self._events.append(
                (
                    "solver-exception",
                    f"{self.primary.name}: {type(exc).__name__}: {exc}",
                )
            )
            return self._solve_fallback(context)
        if self.wall_budget is not None:
            elapsed = time.perf_counter() - started
            if elapsed > self.wall_budget:
                self._events.append(
                    (
                        "solver-overrun",
                        f"{self.primary.name} took {elapsed:.3f}s "
                        f"(budget {self.wall_budget:.3f}s)",
                    )
                )
                if self.enforce_budget:
                    return self._solve_fallback(context)
        return decision

    def _solve_fallback(self, context: RMContext) -> MappingDecision:
        if self.fallback is None:
            self._events.append(
                ("solver-unavailable", "no fallback configured")
            )
            return MappingDecision.infeasible()
        try:
            return self.fallback.solve(context)
        except Exception as exc:  # noqa: BLE001 - last line of defence
            self._events.append(
                (
                    "solver-unavailable",
                    f"fallback {self.fallback.name}: "
                    f"{type(exc).__name__}: {exc}",
                )
            )
            return MappingDecision.infeasible()

    def __repr__(self) -> str:
        return (
            f"SolverWatchdog(primary={self.primary!r}, "
            f"fallback={self.fallback!r})"
        )
