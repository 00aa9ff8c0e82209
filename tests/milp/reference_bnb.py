"""Test-only reference: a pure-Python branch-and-bound MILP solver.

Solves a :class:`~repro.milp.model.Model` by LP-relaxation branch-and-
bound: the LP relaxations are solved with :func:`scipy.optimize.linprog`
(HiGHS simplex/IPM), while all integrality handling — branching, bound
management, pruning, incumbent tracking — is implemented here.

This solver exists to *cross-validate*
:func:`~repro.milp.scipy_backend.solve_with_scipy`, the one solve path
in ``src``: the two take completely different integer search paths, so
agreeing optima give high confidence in the model construction.
:func:`solving_with_bnb` swaps it in under
:meth:`Model.solve <repro.milp.model.Model.solve>`, so a whole resource
manager can run on it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.milp import scipy_backend
from repro.milp.model import Model, Solution, SolveStatus

__all__ = ["solve_with_bnb", "solving_with_bnb"]

_INT_TOL = 1e-6


@dataclass
class _Node:
    lb: np.ndarray
    ub: np.ndarray
    depth: int


def _solve_relaxation(
    c: np.ndarray,
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    a_eq: np.ndarray | None,
    b_eq: np.ndarray | None,
    lb: np.ndarray,
    ub: np.ndarray,
):
    bounds = list(
        zip(lb, [None if math.isinf(u) else u for u in ub], strict=True)
    )
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    return result


def _split_rows(model: Model):
    """``c``, ``A_ub``/``b_ub``, ``A_eq``/``b_eq`` and bounds for linprog.

    :func:`~scipy.optimize.linprog` takes ``A_ub @ x <= b_ub`` and
    ``A_eq @ x == b_eq`` rather than two-sided rows: a row with
    ``lo == hi`` is an equality, and each finite side of any other row
    becomes one ``<=`` row (the ``lo`` side negated).
    """
    arrays = model.arrays()
    shape = (len(arrays.lo), len(arrays.c))
    dense = csr_matrix(arrays.a, shape=shape).toarray()
    ub_rows: list[np.ndarray] = []
    ub_rhs: list[float] = []
    eq_rows: list[int] = []
    for index, (lo, hi) in enumerate(zip(arrays.lo, arrays.hi, strict=True)):
        if math.isfinite(lo) and lo == hi:
            eq_rows.append(index)
            continue
        if math.isfinite(hi):
            ub_rows.append(dense[index])
            ub_rhs.append(hi)
        if math.isfinite(lo):
            ub_rows.append(-dense[index])
            ub_rhs.append(-lo)
    a_ub = np.vstack(ub_rows) if ub_rows else None
    b_ub = np.array(ub_rhs) if ub_rows else None
    a_eq = dense[eq_rows] if eq_rows else None
    b_eq = arrays.lo[eq_rows] if eq_rows else None
    integers = np.flatnonzero(arrays.integrality).tolist()
    return arrays.c, a_ub, b_ub, a_eq, b_eq, arrays.lb, arrays.ub, integers


def solve_with_bnb(
    model: Model,
    *,
    max_nodes: int = 200_000,
) -> Solution:
    """Solve ``model`` by branch-and-bound.

    Parameters
    ----------
    max_nodes:
        Safety cap on explored nodes; exceeding it returns
        :data:`~repro.milp.model.SolveStatus.ERROR` with the incumbent (if
        any) so callers can distinguish "proved" from "best effort".
    """
    if not model.variables:
        return Solution(SolveStatus.OPTIMAL, 0.0, [])
    c, a_ub, b_ub, a_eq, b_eq, lb0, ub0, integers = _split_rows(model)

    best_values: np.ndarray | None = None
    best_objective = math.inf
    stack = [_Node(lb0.copy(), ub0.copy(), 0)]
    explored = 0
    exhausted = True

    while stack:
        if explored >= max_nodes:
            exhausted = False
            break
        node = stack.pop()
        explored += 1
        result = _solve_relaxation(c, a_ub, b_ub, a_eq, b_eq, node.lb, node.ub)
        if result.status == 3:
            # An unbounded relaxation with integer variables would in
            # general still need branching; report it as unbounded.
            return Solution(SolveStatus.UNBOUNDED, -math.inf, [])
        if result.status != 0:
            continue  # infeasible subproblem: prune
        if result.fun >= best_objective - 1e-9:
            continue  # bound prune
        x = result.x
        fractional = [
            (abs(x[i] - round(x[i])), i)
            for i in integers
            if abs(x[i] - round(x[i])) > _INT_TOL
        ]
        if not fractional:
            best_objective = result.fun
            best_values = x.copy()
            for i in integers:
                best_values[i] = round(best_values[i])
            continue
        # Branch on the most fractional variable.
        _, branch_var = max(fractional)
        floor_val = math.floor(x[branch_var])
        left = _Node(node.lb.copy(), node.ub.copy(), node.depth + 1)
        left.ub[branch_var] = floor_val
        right = _Node(node.lb.copy(), node.ub.copy(), node.depth + 1)
        right.lb[branch_var] = floor_val + 1
        # Explore the side the relaxation leans towards first.
        if x[branch_var] - floor_val > 0.5:
            stack.extend([left, right])
        else:
            stack.extend([right, left])

    if best_values is None:
        status = SolveStatus.INFEASIBLE if exhausted else SolveStatus.ERROR
        return Solution(status, math.inf, [])
    status = SolveStatus.OPTIMAL if exhausted else SolveStatus.ERROR
    return Solution(
        status, float(c @ best_values), [float(v) for v in best_values]
    )


@contextmanager
def solving_with_bnb() -> Iterator[None]:
    """Make every :meth:`Model.solve <repro.milp.model.Model.solve>` in
    the block run :func:`solve_with_bnb` instead of HiGHS.

    ``Model.solve`` looks up ``scipy_backend.solve_with_scipy`` on each
    call, so patching that one attribute swaps the solver.  A
    :class:`pytest.MonkeyPatch` context rather than the ``monkeypatch``
    fixture, which is function-scoped and so unusable under ``@given``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy_backend, "solve_with_scipy", solve_with_bnb)
        yield
