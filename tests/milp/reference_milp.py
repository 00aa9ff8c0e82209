"""Test-only reference: the same HiGHS solve through :func:`scipy.optimize.milp`.

:func:`~repro.milp.scipy_backend.solve_with_scipy` hands each model to
scipy's bundled HiGHS bindings itself.  :func:`solve_with_milp` is the
straightforward way to make that solve: the public
:func:`scipy.optimize.milp` front end, with the same arrays and the
same HiGHS options.  Both run the same HiGHS on the same model, so
they must return the same status and bit-equal objective and values;
``tests/milp/test_reference_milp.py`` checks that they do.

The one intended difference is the status table: scipy reports a model
HiGHS refuses to load (``kModelError``) as infeasible, which the
resource manager would read as a proven reject, while the direct path
reports :attr:`~repro.milp.model.SolveStatus.ERROR`.
"""

from __future__ import annotations

import math
import warnings

from scipy.optimize import Bounds, LinearConstraint, OptimizeWarning, milp
from scipy.sparse import csr_matrix

from repro.milp.model import Model, Solution, SolveStatus
from tests.milp.test_highs_inputs import HIGHS_OPTIONS

__all__ = ["solve_with_milp"]

_FEASIBILITY_JUMP_DROPPED = (
    r"Unrecognized options detected: \{'mip_heuristic_run_feasibility_jump'"
)
"""Start of the warning scipy's HiGHS wrapper raises when the bundled
HiGHS predates feasibility jump and drops that key."""


def solve_with_milp(model: Model) -> Solution:
    """Solve ``model`` with :func:`scipy.optimize.milp`."""
    if not model.variables:
        return Solution(SolveStatus.OPTIMAL, 0.0, [])
    arrays = model.arrays()
    constraints = []
    if model.rows:
        matrix = csr_matrix(arrays.a, shape=(len(arrays.lo), len(arrays.c)))
        constraints.append(LinearConstraint(matrix, arrays.lo, arrays.hi))
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
            options=dict(HIGHS_OPTIONS),
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
