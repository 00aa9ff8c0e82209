"""Test-only reference: Algorithm 1's ``solve`` in its straightforward form.

This is the per-round-rescan implementation (regret scan over every
unmapped task each round, rows rebuilt for every task, a prune pass
after every placement, energy recomputed with ``mapping_energy``).  The
production :meth:`HeuristicResourceManager.solve` must return the same
:class:`~repro.core.base.MappingDecision` and emit the same
``heuristic-place`` events on every context; the differential tests in
``test_heuristic_reference.py`` hold it to that.
"""

from __future__ import annotations

import math

from repro.core.base import MappingDecision, mapping_energy
from repro.core.context import PlannedTask, RMContext
from repro.core.heuristic import HeuristicResourceManager
from repro.sched.timeline import Timeline

__all__ = ["ReferenceHeuristic"]

_EPS = 1e-9
_INF = math.inf


class ReferenceHeuristic(HeuristicResourceManager):
    """Same parameters as :class:`HeuristicResourceManager`; the
    straightforward ``solve`` (O(L^2) rescans per activation)."""

    def solve(self, context: RMContext) -> MappingDecision:
        """Run Algorithm 1 on one activation (see the class docstring)."""
        tasks = list(context.tasks)
        if not tasks:
            return MappingDecision(feasible=True, mapping={}, energy=0.0)
        tracer = self.tracer
        tracing = tracer.enabled
        platform = context.platform
        n = platform.size
        window = context.window
        capacity = [window] * n
        time = context.time
        charge_unstarted = context.charge_unstarted_migration
        deadline_penalty = self.deadline_penalty
        resources = range(n)
        down = context.down_resources

        # Line 6: desirability f[j,i] = ep + em + M * (cpm > t_left).
        # The rows replicate repro.core.context.cost_rows inline on
        # purpose (same arithmetic, same order), so the differential
        # test also checks the shared cost model; wcet and energy are
        # finite on exactly the same resources (TaskType invariant), so
        # one executability test covers both rows.
        desirability: dict[int, list[float]] = {}
        exec_times: dict[int, list[float]] = {}
        # Per task: resources with finite cpm, pre-sorted by (f, i).
        preference: dict[int, list[int]] = {}
        for task in tasks:
            task_type = task.task
            wcets = task_type.wcet
            energies = task_type.energy
            fraction = task.remaining_fraction
            current = task.current_resource
            run_np = task.running_non_preemptable
            pending = task.pending_migration_time
            migratable = (
                current is not None
                and not run_np
                and (task.started or charge_unstarted)
            )
            cm_row = (
                task_type.migration_time[current] if migratable else None
            )
            em_row = (
                task_type.migration_energy[current] if migratable else None
            )
            budget = self._deadline_budget(context, task)
            threshold = budget + _EPS
            row_f: list[float] = []
            row_c: list[float] = []
            for i in resources:
                wcet = wcets[i]
                if wcet == _INF or (down and i in down):
                    row_f.append(_INF)
                    row_c.append(_INF)
                    continue
                if run_np and i != current:
                    base_c = wcet
                    base_e = energies[i]
                else:
                    base_c = wcet * fraction
                    base_e = energies[i] * fraction
                if cm_row is not None and i != current:
                    cpm = base_c + cm_row[i]
                    energy = base_e + em_row[i]  # type: ignore[index]
                elif i == current:
                    cpm = base_c + pending
                    energy = base_e
                else:
                    cpm = base_c
                    energy = base_e
                penalty = deadline_penalty if cpm > threshold else 0.0
                row_f.append(energy + penalty)
                row_c.append(cpm)
            job_id = task.job_id
            desirability[job_id] = row_f
            exec_times[job_id] = row_c
            preference[job_id] = [
                i
                for _, i in sorted(
                    (row_f[i], i) for i in resources if row_c[i] != _INF
                )
            ]

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
                    arrival=max(task.arrival or time, time),
                )
            else:
                timelines[resource].insert(
                    task.job_id,
                    exec_time,
                    task.absolute_deadline,
                    must_run_first=(
                        task.running_non_preemptable
                        and task.current_resource == resource
                        and not platform.is_preemptable(resource)
                    ),
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
                exec_time = exec_times[task.job_id][resource]
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

        sorted_ids = sorted(unmapped)
        # Candidate lists (resources with capacity left, in preference
        # order), maintained incrementally: capacities only ever shrink,
        # and only the placed-on resource shrinks per round, so pruning
        # that one resource from every list reproduces the per-round
        # filter exactly.
        candidates_of = {
            job_id: [
                i
                for i in preference[job_id]
                if exec_times[job_id][i] <= capacity[i] + _EPS
            ]
            for job_id in sorted_ids
        }
        while unmapped:
            # Lines 7-23: pick the unmapped task with the largest regret.
            chosen: PlannedTask | None = None
            chosen_candidates: list[int] = []
            best_regret = -_INF
            for job_id in sorted_ids:
                candidates = candidates_of[job_id]
                if not candidates:
                    return MappingDecision.infeasible()  # line 22: exit
                f_row = desirability[job_id]
                if len(candidates) == 1:
                    regret = _INF  # line 14: must place now
                else:
                    regret = f_row[candidates[1]] - f_row[candidates[0]]
                if regret > best_regret:
                    best_regret = regret
                    chosen = unmapped[job_id]
                    chosen_candidates = candidates
                    if regret == _INF:
                        # Nothing can beat inf under the strict `>`;
                        # skipping the rest of the scan is decision-
                        # preserving (see the module docstring).
                        break

            assert chosen is not None
            # Lines 24-34: place on the most desirable schedulable resource.
            placed = False
            chosen_exec = exec_times[chosen.job_id]
            for resource in chosen_candidates:
                exec_time = chosen_exec[resource]
                if self._is_schedulable(
                    timelines[resource], context, chosen, resource, exec_time
                ):
                    mapping[chosen.job_id] = resource
                    capacity[resource] -= exec_time
                    place(chosen, resource, exec_time)
                    placed = True
                    if tracing:
                        tracer.emit(
                            "heuristic-place",
                            time=time,
                            job_id=chosen.job_id,
                            resource=resource,
                            data=(
                                ("desirability", tuple(
                                    desirability[chosen.job_id]
                                )),
                                ("predicted", chosen.is_predicted),
                                ("regret", best_regret),
                            ),
                        )
                    break
            if not placed:
                return MappingDecision.infeasible()  # line 32: exit
            del unmapped[chosen.job_id]
            del candidates_of[chosen.job_id]
            sorted_ids.remove(chosen.job_id)
            # Prune the shrunk resource from the remaining candidates.
            threshold = capacity[resource] + _EPS
            for job_id in sorted_ids:
                candidates = candidates_of[job_id]
                if (
                    resource in candidates
                    and exec_times[job_id][resource] > threshold
                ):
                    candidates.remove(resource)

        return MappingDecision(
            feasible=True,
            mapping=mapping,
            energy=mapping_energy(context, mapping),
        )

    @staticmethod
    def _deadline_budget(context: RMContext, task: PlannedTask) -> float:
        """``t_left_j``; for the predicted task, measured from its arrival."""
        if task.is_predicted and task.arrival is not None:
            return task.absolute_deadline - max(context.time, task.arrival)
        return context.t_left(task)
