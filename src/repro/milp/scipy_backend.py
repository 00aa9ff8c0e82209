"""Solve a :class:`~repro.milp.model.Model` with scipy's HiGHS MILP.

scipy bundles the HiGHS solver behind :func:`scipy.optimize.milp`; this
module hands it :meth:`Model.arrays <repro.milp.model.Model.arrays>`
and maps the result back.

Every call is a fresh HiGHS solve with the same fixed options (below):
no solver object, warm start or cache outlives a call, so an answer
never depends on what the process solved before.  The options keep
HiGHS exact on the resource manager's small big-M models (zero gap,
tight integrality tolerance, presolve off) and skip the one heuristic
that costs more than the rest of the solve (feasibility jump).  None of
them is a parameter: this is the one MILP solve path.
"""

from __future__ import annotations

import math
import warnings

from scipy.optimize import Bounds, LinearConstraint, OptimizeWarning, milp
from scipy.sparse import csr_matrix

from repro.milp.model import Model, Solution, SolveStatus
from repro.model import EPS

__all__ = ["solve_with_scipy"]

_MIP_REL_GAP = 0.0
"""Prove optimality: HiGHS's default relative gap (1e-4) may stop at a
mapping that is not the cheapest."""

_PRESOLVE = False
"""HiGHS presolve.  Off: on big-M models with near-integral right-hand
sides (exactly what the RM formulation produces) the bundled HiGHS
presolve can return sub-optimal "optimal" solutions; see
tests/milp/test_regressions.py::TestPresolveRegression."""

_MIP_FEASIBILITY_JUMP = False
"""Skip HiGHS's feasibility-jump primal heuristic.  HiGHS runs it before
the root LP of every MIP, and on an activation model (tens of columns,
one branch-and-bound node, a few simplex iterations) it is a fixed
~9 ms of CPU per solve, most of the solve.  A heuristic only proposes
incumbents; with a zero gap HiGHS still proves the optimum without it."""

_FEASIBILITY_JUMP_DROPPED = (
    r"Unrecognized options detected: \{'mip_heuristic_run_feasibility_jump'"
)
"""Start of the warning scipy's HiGHS wrapper raises when the bundled
HiGHS predates feasibility jump and drops :data:`_MIP_FEASIBILITY_JUMP`."""

_MIP_FEASIBILITY_TOLERANCE = EPS
"""HiGHS MIP feasibility/integrality tolerance.  Tightened from the 1e-6
default because a binary allowed to sit at 1e-6 leaks ``1e-6 * big_M``
of slack through big-M constraints — enough to "satisfy" a deadline
constraint the schedule actually violates (observed as ~1e-3 deadline
misses before tightening)."""


def solve_with_scipy(model: Model) -> Solution:
    """Solve ``model`` to optimality with HiGHS."""
    if not model.variables:
        return Solution(SolveStatus.OPTIMAL, 0.0, [])
    arrays = model.arrays()
    constraints = []
    if model.rows:
        matrix = csr_matrix(arrays.a, shape=(len(arrays.lo), len(arrays.c)))
        constraints.append(LinearConstraint(matrix, arrays.lo, arrays.hi))
    options = {
        "mip_rel_gap": _MIP_REL_GAP,
        "presolve": _PRESOLVE,
        # Forwarded verbatim to HiGHS (scipy warns about unknown keys).
        "mip_feasibility_tolerance": _MIP_FEASIBILITY_TOLERANCE,
        "mip_heuristic_run_feasibility_jump": _MIP_FEASIBILITY_JUMP,
    }
    with warnings.catch_warnings():
        # scipy warns that non-standard options are "passed to HiGHS
        # verbatim" — which is exactly the intent.
        warnings.filterwarnings(
            "ignore", message="Unrecognized options", category=RuntimeWarning
        )
        # A HiGHS older than feasibility jump does not know that one key:
        # scipy's wrapper warns and drops it, leaving the solve as it
        # was.  Any other key HiGHS drops still warns.
        warnings.filterwarnings(
            "ignore",
            message=_FEASIBILITY_JUMP_DROPPED,
            category=OptimizeWarning,
        )
        result = milp(
            arrays.c,
            constraints=constraints,
            bounds=Bounds(arrays.lb, arrays.ub),
            integrality=arrays.integrality,
            options=options,
        )
    if result.status == 0:
        return Solution(
            SolveStatus.OPTIMAL, float(result.fun), [float(v) for v in result.x]
        )
    if result.status == 2:
        return Solution(SolveStatus.INFEASIBLE, math.inf, [])
    if result.status == 3:
        return Solution(SolveStatus.UNBOUNDED, -math.inf, [])
    # status 1 = iteration/time limit, 4 = other error
    return Solution(SolveStatus.ERROR, math.nan, [])
