"""MILP-based exact resource manager (Sec. 4.2, eqs. (1)-(14)).

The formulation optimises the binary mapping variables ``x[j,i]``:

* objective — remaining energy plus migration overhead,
  ``min sum x[j,i] * (ep[j,i] + em[j,k,i])``;
* (1) every task maps to exactly one resource;
* (2) ``cpm[j,i] <= t_left_j`` (encoded by variable filtering);
* (3)/(6) EDF cumulative-work deadline constraints per resource;
* (4)/(5) the predicted task starts at ``max(s_p, q_i)`` on the resource
  it maps to when its deadline outranks nothing;
* (7)-(14) when the predicted task has an earlier deadline than some
  tasks (the SL2 sublist) on a *preemptable* resource, it preempts: each
  SL2 task either provably finishes before ``s_p`` or absorbs the
  predicted task's execution time.  The chunk-level disjunctions
  (8)-(14) of the paper admit a closed-form finish time under EDF
  (``finish_j = q_i + S_j + cp_p * [q_i + S_j > s_p - t]``), which is
  what we encode — one selector binary per (resource, SL2 task) instead
  of four-way chunk-overlap disjunctions, with identical feasible
  mappings;
* on a *non-preemptable* resource the predicted task cannot preempt but
  does join the EDF queue at completion boundaries (non-preemptive EDF):
  each SL2 task either *starts* before ``s_p`` (and then runs to
  completion ahead of the predicted task, delaying it) or yields the
  queue position and absorbs the predicted task's execution time.  One
  truth-forced binary per (resource, SL2 task) encodes the boundary.

Every optimal mapping returned by the solver is re-validated against the
ground-truth EDF timeline (:func:`repro.core.base.mapping_feasible`), so
a formulation/solver discrepancy raises instead of silently corrupting
experiment results.
"""

from __future__ import annotations


from repro.core.base import (
    MappingDecision,
    MappingStrategy,
    mapping_energy,
    mapping_feasible,
)
from repro.core.context import PlannedTask, RMContext
from repro.milp.model import LinExpr, Model, Variable
from repro.sched.timeline import EPS

__all__ = ["MilpResourceManager", "MilpValidationError"]

_SAFETY = 0.0
"""Deadline tightening applied inside the MILP.

Kept at zero: the EDF timeline accepts boundary-exact finishes (within
its 1e-9 tolerance), so the MILP must too — and sub-tolerance shaving is
worse than useless with HiGHS (its MIP feasibility tolerance is larger
than any safe shave, and near-integral right-hand sides aggravate a
presolve bug; see repro.milp.scipy_backend).  Every returned mapping is
re-validated against the exact timeline regardless."""


class MilpValidationError(RuntimeError):
    """The solver returned a mapping the ground-truth timeline rejects."""


class MilpResourceManager(MappingStrategy):
    """Exact optimisation of one RM activation via MILP.

    Parameters
    ----------
    backend:
        ``"scipy"`` (HiGHS) or ``"bnb"`` (pure-Python branch-and-bound).
    validate:
        Re-check returned mappings against the exact EDF timeline,
        excluding tolerance-corrupted solutions with no-good cuts
        (default on; disabling also disables the repair loop).
    time_limit:
        Optional per-solve wall-clock limit in seconds (scipy backend).
    max_repairs:
        Bound on the solve-validate-cut iterations before raising
        :class:`MilpValidationError` (each cut removes one mapping the
        solver's tolerances wrongly admitted; in practice a single cut
        suffices on the rare affected activations).
    include_predicted_energy:
        Whether the predicted task's (phantom) energy enters the
        objective.  True follows the paper's objective (the sum ranges
        over all of ``S-bar``); False treats the prediction as a pure
        feasibility reservation — an ablation of how much the phantom
        term distorts real placements.
    """

    name = "milp"

    def __init__(
        self,
        backend: str = "scipy",
        *,
        validate: bool = True,
        time_limit: float | None = None,
        max_repairs: int = 16,
        include_predicted_energy: bool = True,
    ) -> None:
        if backend not in ("scipy", "bnb"):
            raise ValueError(f"unknown backend {backend!r}")
        if max_repairs < 1:
            raise ValueError(f"max_repairs must be >= 1, got {max_repairs}")
        self.backend = backend
        self.validate = validate
        self.time_limit = time_limit
        self.max_repairs = max_repairs
        self.include_predicted_energy = include_predicted_energy

    def solve(self, context: RMContext) -> MappingDecision:
        """Build, solve and validate the activation MILP (eqs. (1)-(14))."""
        tasks = list(context.tasks)
        if not tasks:
            return MappingDecision(feasible=True, mapping={}, energy=0.0)
        if len(context.predicted_tasks) > 1:
            raise NotImplementedError(
                "the paper's MILP formulation plans with a single predicted "
                "request; use HeuristicResourceManager or "
                "ExactResourceManager for lookahead horizons > 1"
            )

        n = context.platform.size
        predicted = context.predicted

        # Constraint (2) by filtering: candidate resources per task.
        candidates: dict[int, tuple[int, ...]] = {}
        for task in tasks:
            cands = context.candidate_resources(task)
            if not cands:
                return MappingDecision.infeasible()
            candidates[task.job_id] = cands

        model = Model("rm-activation")
        x: dict[tuple[int, int], Variable] = {}
        for task in tasks:
            for i in candidates[task.job_id]:
                x[task.job_id, i] = model.add_binary(f"x[{task.job_id},{i}]")

        # (1) each task on exactly one resource.
        for task in tasks:
            total = LinExpr()
            for i in candidates[task.job_id]:
                total = total + x[task.job_id, i]
            model.add(total == 1.0, name=f"map[{task.job_id}]")

        # Objective: remaining energy + migration overhead.
        objective = LinExpr()
        for task in tasks:
            if task.is_predicted and not self.include_predicted_energy:
                continue
            for i in candidates[task.job_id]:
                objective = objective + x[task.job_id, i] * context.energy(task, i)
        model.minimize(objective)

        big_m = self._big_m(context, tasks, candidates)
        sp_rel = 0.0
        if predicted is not None:
            # An arrival within EPS of now has already arrived, as in
            # build_timeline (``arrival <= start + EPS``).  Snapping it
            # also keeps HiGHS off a right-hand side equal to its MIP
            # feasibility tolerance, where it stops with a solve error.
            offset = (predicted.arrival or context.time) - context.time
            if offset > EPS:
                sp_rel = offset

        for i in range(n):
            self._add_resource_constraints(
                model, context, tasks, candidates, x, i, predicted, sp_rel, big_m
            )

        # Solve-validate-cut loop.  Finite solver tolerances can let a
        # binary sit fractionally inside a big-M term, "satisfying" a
        # deadline constraint the actual schedule violates.  Any returned
        # mapping that fails the exact EDF timeline is therefore excluded
        # with a no-good cut and the model re-solved; cut mappings are
        # infeasible in the true semantics, so optimality is preserved.
        for repairs in range(self.max_repairs):
            solution = model.solve(self.backend, **self._solver_options())
            if not solution.optimal:
                self._trace_solve(context, feasible=False, repairs=repairs)
                return MappingDecision.infeasible()

            mapping: dict[int, int] = {}
            for task in tasks:
                chosen = [
                    i
                    for i in candidates[task.job_id]
                    if solution.binary(x[task.job_id, i])
                ]
                if len(chosen) != 1:  # pragma: no cover - solver pathology
                    raise MilpValidationError(
                        f"job {task.job_id} mapped to {chosen} resources"
                    )
                mapping[task.job_id] = chosen[0]

            if not self.validate or mapping_feasible(context, mapping):
                self._trace_solve(context, feasible=True, repairs=repairs)
                return MappingDecision(
                    feasible=True,
                    mapping=mapping,
                    energy=mapping_energy(context, mapping),
                )
            selected = LinExpr()
            for job_id, resource in mapping.items():
                selected = selected + x[job_id, resource]
            model.add(
                selected <= float(len(tasks) - 1),
                name=f"nogood[{len(model.constraints)}]",
            )
        raise MilpValidationError(
            f"MILP kept returning timeline-infeasible mappings after "
            f"{self.max_repairs} no-good cuts at t={context.time}"
        )

    def _trace_solve(
        self, context: RMContext, *, feasible: bool, repairs: int
    ) -> None:
        """Emit one ``milp-solve`` event (no-op when tracing is off)."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "milp-solve",
                time=context.time,
                detail=self.backend,
                data=(
                    ("context_size", len(context.tasks)),
                    ("feasible", feasible),
                    ("repairs", repairs),
                ),
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _solver_options(self) -> dict:
        if self.backend == "scipy" and self.time_limit is not None:
            return {"time_limit": self.time_limit}
        return {}

    @staticmethod
    def _big_m(
        context: RMContext,
        tasks: list[PlannedTask],
        candidates: dict[int, tuple[int, ...]],
    ) -> float:
        """A bound dominating any feasible finish time in the window."""
        total_work = sum(
            max(context.cpm(t, i) for i in candidates[t.job_id]) for t in tasks
        )
        horizon = context.window + total_work + 1.0
        predicted = context.predicted
        if predicted is not None and predicted.arrival is not None:
            horizon += max(0.0, predicted.arrival - context.time)
        return 2.0 * horizon

    def _add_resource_constraints(
        self,
        model: Model,
        context: RMContext,
        tasks: list[PlannedTask],
        candidates: dict[int, tuple[int, ...]],
        x: dict[tuple[int, int], Variable],
        resource: int,
        predicted: PlannedTask | None,
        sp_rel: float,
        big_m: float,
    ) -> None:
        """Deadline constraints of one resource (eqs. (3)-(14))."""

        def work(task: PlannedTask) -> LinExpr:
            """``A_j = x[j,i] * cpm[j,i]`` (zero if not a candidate)."""
            if resource not in candidates[task.job_id]:
                return LinExpr()
            return x[task.job_id, resource] * context.cpm(task, resource)

        preemptable = context.platform.is_preemptable(resource)
        real = [t for t in tasks if not t.is_predicted]

        # On a non-preemptable resource, the task currently executing
        # there runs first regardless of its deadline.
        forced = None
        if not preemptable:
            for t in real:
                if t.running_non_preemptable and t.current_resource == resource:
                    forced = t
                    break

        ordered = sorted(real, key=lambda t: (t.absolute_deadline, t.job_id))
        if forced is not None:
            ordered = [forced, *(t for t in ordered if t is not forced)]

        p_here = (
            predicted is not None
            and resource in candidates[predicted.job_id]
        )
        p_deadline = predicted.absolute_deadline if predicted is not None else 0.0
        cp_p = context.cpm(predicted, resource) if p_here else 0.0

        cumulative = LinExpr()  # running sum of A_k in schedule order
        queue_ahead = LinExpr()  # work guaranteed to precede the predicted task
        for task in ordered:
            previous = cumulative  # work ahead of this task (its start)
            contribution = work(task)
            cumulative = cumulative + contribution
            in_sl1 = (
                forced is task
                or not p_here
                or task.absolute_deadline <= p_deadline
            )
            if in_sl1:
                # SL1 (and the forced running task) always precede the
                # predicted task: it can neither preempt them nor outrank
                # them in the EDF queue.
                queue_ahead = queue_ahead + contribution
            if resource not in candidates[task.job_id]:
                continue  # never mapped here: no deadline constraint on i
            # Every constraint below applies only when x[j,i] = 1 (the
            # paper's "satisfied only under certain conditions", encoded
            # big-M): slack = big_m * (1 - x[j,i]).
            mapped_slack = (1.0 - x[task.job_id, resource]) * big_m
            t_left = context.t_left(task) - _SAFETY
            if in_sl1:
                # (3)/(6): plain EDF cumulative-work bound.
                model.add(
                    cumulative - mapped_slack <= t_left,
                    name=f"edf[{task.job_id},{resource}]",
                )
            elif preemptable:
                # (7)-(14): either the task finishes before s_p, or it
                # absorbs the predicted task's execution time.
                no_delay = model.add_binary(f"nodelay[{task.job_id},{resource}]")
                sel_slack = (1.0 - no_delay) * big_m
                model.add(
                    cumulative - sel_slack - mapped_slack <= sp_rel,
                    name=f"before_sp[{task.job_id},{resource}]",
                )
                model.add(
                    cumulative - sel_slack - mapped_slack <= t_left,
                    name=f"edf_nodelay[{task.job_id},{resource}]",
                )
                delayed = (
                    cumulative + x[predicted.job_id, resource] * cp_p
                )
                model.add(
                    delayed - no_delay * big_m - mapped_slack <= t_left,
                    name=f"edf_delayed[{task.job_id},{resource}]",
                )
            else:
                # Non-preemptive EDF insertion: the task runs before the
                # predicted one iff it *starts* (= its no-p queue position)
                # before s_p; the boundary binary is truth-forced so the
                # solver cannot mis-state the queue order.
                before = model.add_binary(f"before[{task.job_id},{resource}]")
                model.add(
                    previous - (1.0 - before) * big_m - mapped_slack <= sp_rel,
                    name=f"starts_early[{task.job_id},{resource}]",
                )
                model.add(
                    previous + before * big_m + mapped_slack >= sp_rel,
                    name=f"starts_late[{task.job_id},{resource}]",
                )
                model.add(
                    cumulative - (1.0 - before) * big_m - mapped_slack
                    <= t_left,
                    name=f"edf_before[{task.job_id},{resource}]",
                )
                model.add(
                    cumulative
                    + x[predicted.job_id, resource] * cp_p
                    - before * big_m
                    - mapped_slack
                    <= t_left,
                    name=f"edf_after[{task.job_id},{resource}]",
                )
                # The blocking prefix delays the predicted task:
                # y = before AND x[j,i], so queue_ahead gains A_j exactly
                # when the task really runs first.
                y = model.add_var(
                    f"ahead[{task.job_id},{resource}]", lb=0.0, ub=1.0
                )
                model.add(
                    y - before - x[task.job_id, resource] >= -1.0,
                    name=f"ahead_and[{task.job_id},{resource}]",
                )
                queue_ahead = queue_ahead + y * context.cpm(task, resource)

        if predicted is not None and p_here:
            # (4)/(5) generalised: the predicted task starts at
            # max(s_p, work guaranteed ahead of it on this resource).
            start = model.add_var(f"start_p[{resource}]", lb=0.0)
            model.add(start - queue_ahead >= 0.0, name=f"sp_q[{resource}]")
            model.add(start >= sp_rel, name=f"sp_arrival[{resource}]")
            finish = start + x[predicted.job_id, resource] * cp_p
            t_left_p = predicted.absolute_deadline - context.time - _SAFETY
            model.add(
                finish
                - (1.0 - x[predicted.job_id, resource]) * big_m
                <= t_left_p,
                name=f"deadline_p[{resource}]",
            )
