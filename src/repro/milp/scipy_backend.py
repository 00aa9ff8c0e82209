"""Solve a :class:`~repro.milp.model.Model` with the HiGHS bundled in scipy.

scipy ships HiGHS's own Python bindings (``scipy.optimize._highspy._core``,
scipy 1.15 and later).  This module fills one ``HighsLp`` from
:meth:`Model.arrays <repro.milp.model.Model.arrays>`, hands it to a
fresh ``_Highs`` solver, and reads back only the model status, the
objective value and the column values.  It does not go through
:func:`scipy.optimize.milp`: that front end re-validates its options
with per-call option managers, converts the matrix with
``scipy.sparse`` and gathers duals and bound multipliers this module
never reads, which together cost more than the solve itself on an
activation model.

Every call is a fresh HiGHS solve with the same fixed options
(:data:`_OPTIONS`): no solver object, option set, array or warm start
outlives a call, so an answer never depends on what the process solved
before.  The options keep HiGHS exact on the resource manager's small
big-M models (zero gap, tight integrality tolerance, presolve off) and
skip the one heuristic that costs more than the rest of the solve
(feasibility jump).  None of them is a parameter: this is the one MILP
solve path.

Only HiGHS's ``kOptimal``, ``kInfeasible`` and ``kUnbounded`` carry
over as such; any other model status, and a model or run HiGHS refuses
with ``kError``, is :attr:`SolveStatus.ERROR`, which proves nothing
about the model.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.optimize import OptimizeWarning
from scipy.optimize._highspy._core import (
    HighsLp,
    HighsModelStatus,
    HighsStatus,
    HighsVarType,
    MatrixFormat,
    _Highs,
)

from repro.milp.model import Model, Solution, SolveStatus
from repro.model import EPS

__all__ = ["solve_with_scipy"]

_MIP_REL_GAP = 0.0
"""Prove optimality: HiGHS's default relative gap (1e-4) may stop at a
mapping that is not the cheapest."""

_PRESOLVE = "off"
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

_MIP_FEASIBILITY_TOLERANCE = EPS
"""HiGHS MIP feasibility/integrality tolerance.  Tightened from the 1e-6
default because a binary allowed to sit at 1e-6 leaks ``1e-6 * big_M``
of slack through big-M constraints — enough to "satisfy" a deadline
constraint the schedule actually violates (observed as ~1e-3 deadline
misses before tightening)."""

_OPTIONS: tuple[tuple[str, bool | float | str], ...] = (
    # First, so that HiGHS logs nothing about the keys set after it.
    ("log_to_console", False),
    ("presolve", _PRESOLVE),
    ("mip_rel_gap", _MIP_REL_GAP),
    ("mip_feasibility_tolerance", _MIP_FEASIBILITY_TOLERANCE),
    ("mip_heuristic_run_feasibility_jump", _MIP_FEASIBILITY_JUMP),
)
"""Every HiGHS option a solve sets, by HiGHS's own name and value, in
the order they are set."""

_OPTIONAL_KEY = "mip_heuristic_run_feasibility_jump"
"""The one key a HiGHS may refuse without a warning: a HiGHS older than
feasibility jump does not run it anyway, so the solve is as intended."""

_VAR_TYPES = (HighsVarType.kContinuous, HighsVarType.kInteger)
"""HiGHS's column type for ``Arrays.integrality`` 0 and 1."""

_STATUSES = {
    HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
}
"""HiGHS model statuses that say something about the model; any other
is :attr:`SolveStatus.ERROR`."""

_NO_OBJECTIVE = {
    SolveStatus.INFEASIBLE: math.inf,
    SolveStatus.UNBOUNDED: -math.inf,
    SolveStatus.ERROR: math.nan,
}
"""The objective a solve without a solution reports."""


def _colwise(
    a: tuple[np.ndarray, np.ndarray, np.ndarray], n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR matrix ``a = (data, indices, indptr)`` as CSC
    ``(start, index, value)``, exactly as ``scipy.sparse``'s ``tocsc()``
    gives it: a stable sort by column keeps each column's entries in row
    order."""
    data, indices, indptr = a
    order = np.argsort(indices, kind="stable")
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    start = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n_cols), out=start[1:])
    return start, rows[order], data[order]


def solve_with_scipy(model: Model) -> Solution:
    """Solve ``model`` to optimality with HiGHS."""
    if not model.variables:
        return Solution(SolveStatus.OPTIMAL, 0.0, [])
    arrays = model.arrays()
    n_rows, n_cols = len(arrays.lo), len(arrays.c)
    lp = HighsLp()
    lp.num_col_ = n_cols
    lp.num_row_ = n_rows
    lp.col_cost_ = arrays.c
    lp.col_lower_ = arrays.lb
    lp.col_upper_ = arrays.ub
    lp.row_lower_ = arrays.lo
    lp.row_upper_ = arrays.hi
    lp.integrality_ = [_VAR_TYPES[kind] for kind in arrays.integrality]
    matrix = lp.a_matrix_
    matrix.format_ = MatrixFormat.kColwise
    matrix.num_col_ = n_cols
    matrix.num_row_ = n_rows
    matrix.start_, matrix.index_, matrix.value_ = _colwise(arrays.a, n_cols)

    highs = _Highs()
    for key, value in _OPTIONS:
        refused = highs.setOptionValue(key, value) != HighsStatus.kOk
        if refused and key != _OPTIONAL_KEY:
            warnings.warn(
                f"HiGHS refused option {key}={value!r}; solving without it",
                OptimizeWarning,
                stacklevel=2,
            )
    if (
        highs.passModel(lp) == HighsStatus.kError
        or highs.run() == HighsStatus.kError
    ):
        return Solution(SolveStatus.ERROR, math.nan, [])
    status = _STATUSES.get(highs.getModelStatus(), SolveStatus.ERROR)
    if status is not SolveStatus.OPTIMAL:
        return Solution(status, _NO_OBJECTIVE[status], [])
    return Solution(
        status,
        highs.getInfo().objective_function_value,
        list(highs.getSolution().col_value),
    )
