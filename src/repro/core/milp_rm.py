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

The model is emitted directly as rows of a :class:`repro.milp.model.Model`
(columns, coefficients and bounds), with each big-M condition folded
into its row's coefficients and right-hand side.

Every optimal mapping returned by the solver is re-validated against the
ground-truth EDF timeline (:func:`repro.core.base.mapping_feasible`), so
a formulation/solver discrepancy raises instead of silently corrupting
experiment results.
"""

from __future__ import annotations

import math

from repro.core.base import (
    MappingDecision,
    MappingStrategy,
    mapping_energy,
    mapping_feasible,
)
from repro.core.context import PlannedTask, RMContext
from repro.milp.model import Model, SolveStatus
from repro.model import EPS

__all__ = ["MilpResourceManager", "MilpValidationError"]

_MAX_REPAIRS = 16
"""Bound on the solve-validate-cut iterations before raising
:class:`MilpValidationError`.  Each cut removes one mapping the solver's
tolerances wrongly admitted; in practice a single cut suffices on the
rare affected activations."""


class MilpValidationError(RuntimeError):
    """The solver gave no answer the RM can act on: a status that is
    neither optimal nor infeasible (a solver error, an unbounded model),
    or a mapping the ground-truth timeline rejects."""


class MilpResourceManager(MappingStrategy):
    """Exact optimisation of one RM activation via MILP, solved by HiGHS
    (:meth:`repro.milp.model.Model.solve`)."""

    name = "milp"

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
        x: dict[tuple[int, int], int] = {}
        for task in tasks:
            for i in candidates[task.job_id]:
                x[task.job_id, i] = model.add_binary(f"x[{task.job_id},{i}]")

        # (1) each task on exactly one resource.
        for task in tasks:
            cols = [x[task.job_id, i] for i in candidates[task.job_id]]
            model.add_row(
                cols, [1.0] * len(cols), 1.0, 1.0, name=f"map[{task.job_id}]"
            )

        # Objective: remaining energy + migration overhead, over every
        # task of S-bar, the predicted one included (the paper's sum).
        model.minimize(
            {
                x[task.job_id, i]: context.energy(task, i)
                for task in tasks
                for i in candidates[task.job_id]
            }
        )

        big_m = self._big_m(context, tasks, candidates)
        sp_rel = 0.0
        if predicted is not None:
            # Arrived: an arrival within EPS of now has already arrived,
            # as in build_timeline (``arrival <= start + EPS``).  Snapping
            # it also keeps HiGHS off a right-hand side equal to its MIP
            # feasibility tolerance, where it stops with a solve error.
            offset = context.ready_at(predicted) - context.time
            if offset > EPS:
                sp_rel = offset

        for i in range(n):
            self._add_resource_rows(
                model, context, tasks, candidates, x, i, predicted, sp_rel, big_m
            )

        # Solve-validate-cut loop.  Finite solver tolerances can let a
        # binary sit fractionally inside a big-M term, "satisfying" a
        # deadline constraint the actual schedule violates.  Any returned
        # mapping that fails the exact EDF timeline is therefore excluded
        # with a no-good cut and the model re-solved; cut mappings are
        # infeasible in the true semantics, so optimality is preserved.
        for repairs in range(_MAX_REPAIRS):
            solution = model.solve()
            if solution.status is SolveStatus.INFEASIBLE:
                self._trace_solve(context, feasible=False, repairs=repairs)
                return MappingDecision.infeasible()
            if not solution.optimal:
                # Neither a proof of infeasibility nor a mapping: say so
                # rather than reject the arrival as if it were infeasible.
                raise MilpValidationError(
                    f"MILP solve ended {solution.status.name} "
                    f"at t={context.time}"
                )

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

            if mapping_feasible(context, mapping):
                self._trace_solve(context, feasible=True, repairs=repairs)
                return MappingDecision(
                    feasible=True,
                    mapping=mapping,
                    energy=mapping_energy(context, mapping),
                )
            selected = [x[job_id, i] for job_id, i in mapping.items()]
            model.add_row(
                selected,
                [1.0] * len(selected),
                hi=float(len(tasks) - 1),
                name=f"nogood[{len(model.rows)}]",
            )
        raise MilpValidationError(
            f"MILP kept returning timeline-infeasible mappings after "
            f"{_MAX_REPAIRS} no-good cuts at t={context.time}"
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
                detail="scipy",
                data=(
                    ("context_size", len(context.tasks)),
                    ("feasible", feasible),
                    ("repairs", repairs),
                ),
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

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
        if predicted is not None:
            horizon += context.ready_at(predicted) - context.time
        return 2.0 * horizon

    @staticmethod
    def _add_resource_rows(
        model: Model,
        context: RMContext,
        tasks: list[PlannedTask],
        candidates: dict[int, tuple[int, ...]],
        x: dict[tuple[int, int], int],
        resource: int,
        predicted: PlannedTask | None,
        sp_rel: float,
        big_m: float,
    ) -> None:
        """Deadline rows of one resource (eqs. (3)-(14)).

        Every deadline row of task ``j`` applies only when ``x[j,i] = 1``
        (the paper's "satisfied only under certain conditions"), encoded
        big-M: relaxing a ``<=`` row by ``big_m * (1 - x[j,i])`` adds
        ``big_m`` to ``x[j,i]``'s coefficient and to the right-hand side.
        A row gated by two binaries adds ``big_m + big_m`` in one sum.
        """
        preemptable = context.platform.is_preemptable(resource)
        real = [t for t in tasks if not t.is_predicted]

        # The task that must run first here precedes every deadline.
        forced = next((t for t in real if context.runs_first(t, resource)), None)

        ordered = sorted(real, key=lambda t: (t.absolute_deadline, t.job_id))
        if forced is not None:
            ordered = [forced, *(t for t in ordered if t is not forced)]

        p_here = (
            predicted is not None
            and resource in candidates[predicted.job_id]
        )
        p_deadline = predicted.absolute_deadline if predicted is not None else 0.0
        x_p = x[predicted.job_id, resource] if p_here else -1
        cp_p = context.cpm(predicted, resource) if p_here else 0.0
        two_m = big_m + big_m

        # Running sums of A_k = x[k,i] * cpm[k,i] in schedule order, as
        # column/coefficient lists: the work up to and including the
        # current task (its finish), and the work guaranteed to precede
        # the predicted task.
        cum_cols: list[int] = []
        cum_coeffs: list[float] = []
        ahead_cols: list[int] = []
        ahead_coeffs: list[float] = []

        def row(kind, task, cols, coeffs, lo=-math.inf, hi=math.inf):
            name = f"{kind}[{task.job_id},{resource}]"
            model.add_row(cols, coeffs, lo, hi, name)

        for task in ordered:
            if resource not in candidates[task.job_id]:
                continue  # never mapped here: no work, no deadline row on i
            x_j = x[task.job_id, resource]
            cpm = context.cpm(task, resource)
            cum_cols.append(x_j)
            cum_coeffs.append(cpm)
            gated = [*cum_coeffs[:-1], cpm + big_m]  # finish, x[j,i] gated
            # No safety shave on t_left: the EDF timeline accepts
            # boundary-exact finishes (within EPS), so the MILP must too.
            # A shave is worse than useless with HiGHS: its MIP
            # feasibility tolerance is larger than any safe shave, and
            # near-integral right-hand sides aggravate a presolve bug
            # (see repro.milp.scipy_backend).  Every returned mapping is
            # re-validated against the exact timeline instead.
            t_left = context.t_left(task)
            if (
                forced is task
                or not p_here
                or task.absolute_deadline <= p_deadline
            ):
                # SL1 (and the forced running task) always precede the
                # predicted task: it can neither preempt them nor outrank
                # them in the EDF queue.  (3)/(6): plain EDF bound.
                ahead_cols.append(x_j)
                ahead_coeffs.append(cpm)
                row("edf", task, cum_cols, gated, hi=big_m + t_left)
            elif preemptable:
                # (7)-(14): either the task finishes before s_p, or it
                # absorbs the predicted task's execution time.  no_delay
                # gates the first two rows and relaxes the third.
                no_delay = model.add_binary(f"nodelay[{task.job_id},{resource}]")
                cols, coeffs = [*cum_cols, no_delay], [*gated, big_m]
                row("before_sp", task, cols, coeffs, hi=two_m + sp_rel)
                row("edf_nodelay", task, cols, coeffs, hi=two_m + t_left)
                cols = [*cum_cols, x_p, no_delay]
                coeffs = [*gated, cp_p, -big_m]
                row("edf_delayed", task, cols, coeffs, hi=big_m + t_left)
            else:
                # Non-preemptive EDF insertion: the task runs before the
                # predicted one iff it *starts* (= its no-p queue position)
                # before s_p; the boundary binary is truth-forced so the
                # solver cannot mis-state the queue order.
                before = model.add_binary(f"before[{task.job_id},{resource}]")
                cols, prev = [*cum_cols[:-1], before, x_j], cum_coeffs[:-1]
                coeffs = [*prev, big_m, big_m]
                row("starts_early", task, cols, coeffs, hi=two_m + sp_rel)
                coeffs = [*prev, big_m, -big_m]
                row("starts_late", task, cols, coeffs, lo=sp_rel - big_m)
                cols, coeffs = [*cum_cols, before], [*gated, big_m]
                row("edf_before", task, cols, coeffs, hi=two_m + t_left)
                cols = [*cum_cols, x_p, before]
                coeffs = [*gated, cp_p, -big_m]
                row("edf_after", task, cols, coeffs, hi=big_m + t_left)
                # The blocking prefix delays the predicted task:
                # y = before AND x[j,i], so the work ahead gains A_j
                # exactly when the task really runs first.
                y = model.add_var(
                    f"ahead[{task.job_id},{resource}]", lb=0.0, ub=1.0
                )
                cols, coeffs = [y, before, x_j], [1.0, -1.0, -1.0]
                row("ahead_and", task, cols, coeffs, lo=-1.0)
                ahead_cols.append(y)
                ahead_coeffs.append(cpm)

        if p_here:
            # (4)/(5) generalised: the predicted task starts at
            # max(s_p, work guaranteed ahead of it on this resource).
            start_p = model.add_var(f"start_p[{resource}]", lb=0.0)
            model.add_row(
                [start_p, *ahead_cols],
                [1.0, *(-coeff for coeff in ahead_coeffs)],
                lo=0.0,
                name=f"sp_q[{resource}]",
            )
            model.add_row(
                [start_p], [1.0], lo=sp_rel, name=f"sp_arrival[{resource}]"
            )
            t_left_p = predicted.absolute_deadline - context.time
            model.add_row(
                [start_p, x_p],
                [1.0, cp_p + big_m],
                hi=big_m + t_left_p,
                name=f"deadline_p[{resource}]",
            )
