"""MILP row store: variables, linear rows and a minimisation objective.

A :class:`Model` holds a MILP as rows::

    m = Model("rm")
    x = m.add_binary("x[1,2]")          # column index
    t = m.add_var("start", lb=0.0)
    m.add_row((t, x), (1.0, 3.0), hi=10.0)   # t + 3 x <= 10
    m.minimize({x: 2.5, t: 1.0})
    solution = m.solve()

:meth:`Model.arrays` assembles the rows into the one array form
(:class:`Arrays`), and :meth:`Model.solve` hands that to HiGHS
(:mod:`repro.milp.scipy_backend`).  The solver module is imported on
the first solve, so this module loads no scipy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Arrays",
    "Model",
    "Row",
    "Solution",
    "SolveStatus",
    "Variable",
]


@dataclass(frozen=True)
class Variable:
    """One column of a :class:`Model`."""

    index: int
    name: str
    lb: float
    ub: float
    integer: bool


@dataclass(frozen=True)
class Row:
    """``lo <= sum(coeffs[k] * x[cols[k]]) <= hi`` (a side may be infinite)."""

    cols: tuple[int, ...]
    coeffs: tuple[float, ...]
    lo: float
    hi: float
    name: str = ""


class Arrays(NamedTuple):
    """A model as arrays: ``min c @ x`` s.t. ``lo <= A @ x <= hi``,
    ``lb <= x <= ub``, ``x[k]`` integral where ``integrality[k]``.

    ``A`` is CSR: ``(data, indices, indptr)``, one row per model row in
    order, of shape ``(len(lo), len(c))``.
    """

    c: np.ndarray
    a: tuple[np.ndarray, np.ndarray, np.ndarray]
    lo: np.ndarray
    hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray


class SolveStatus(enum.Enum):
    """Outcome of a solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass
class Solution:
    """Result of solving a :class:`Model`."""

    status: SolveStatus
    objective: float
    values: list[float]

    @property
    def optimal(self) -> bool:
        """Whether the solve proved optimality."""
        return self.status is SolveStatus.OPTIMAL

    def value(self, col: int) -> float:
        """Value of one variable, by column index."""
        return self.values[col]

    def binary(self, col: int) -> bool:
        """Value of a binary variable rounded to bool."""
        return self.values[col] > 0.5


class Model:
    """A MILP: variables, linear rows and a linear objective to minimise."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.rows: list[Row] = []
        self.objective: dict[int, float] = {}

    def add_var(
        self,
        name: str = "",
        *,
        lb: float = 0.0,
        ub: float = math.inf,
        integer: bool = False,
    ) -> int:
        """Add a variable with bounds ``[lb, ub]``; returns its column."""
        if lb > ub:
            raise ValueError(f"variable {name!r}: lb {lb} > ub {ub}")
        col = len(self.variables)
        self.variables.append(Variable(col, name or f"v{col}", lb, ub, integer))
        return col

    def add_binary(self, name: str = "") -> int:
        """Add a 0/1 variable; returns its column."""
        return self.add_var(name, lb=0.0, ub=1.0, integer=True)

    def add_row(
        self,
        cols: Sequence[int],
        coeffs: Sequence[float],
        lo: float = -math.inf,
        hi: float = math.inf,
        name: str = "",
    ) -> Row:
        """Add the row ``lo <= sum(coeffs[k] * x[cols[k]]) <= hi``.

        A column may appear once per row: HiGHS would sum a repeated
        column's coefficients, while a dense fill (the test reference
        branch-and-bound's) would keep only the last, so the two would
        read the row differently.
        """
        row = Row(tuple(cols), tuple(coeffs), lo, hi, name)
        if len(row.cols) != len(row.coeffs):
            raise ValueError(
                f"row {name!r}: {len(row.cols)} columns, "
                f"{len(row.coeffs)} coefficients"
            )
        if len(set(row.cols)) != len(row.cols):
            raise ValueError(f"row {name!r} repeats a column: {row.cols}")
        if row.cols and not 0 <= min(row.cols) <= max(row.cols) < len(
            self.variables
        ):
            raise ValueError(f"row {name!r} names an unknown column")
        if lo > hi:
            raise ValueError(f"row {name!r}: lo {lo} > hi {hi}")
        self.rows.append(row)
        return row

    def minimize(self, objective: Mapping[int, float]) -> None:
        """Set the objective ``min sum(coeff * x[col])``."""
        self.objective = dict(objective)

    def arrays(self) -> Arrays:
        """The model in the one array form that is solved.

        Raises :class:`ValueError` naming the first row or variable with
        a NaN bound, a non-finite coefficient or a non-finite objective
        coefficient: HiGHS would read such a model silently (a NaN bound
        as infeasible, a NaN coefficient as an absent term).  Infinite
        bounds are legal.
        """
        c = np.zeros(len(self.variables))
        for col, coeff in self.objective.items():
            c[col] = coeff
        rows = self.rows
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row.cols) for row in rows], out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.fromiter(
            chain.from_iterable(row.cols for row in rows), np.int64, nnz
        )
        data = np.fromiter(
            chain.from_iterable(row.coeffs for row in rows), np.float64, nnz
        )
        arrays = Arrays(
            c=c,
            a=(data, indices, indptr),
            lo=np.array([row.lo for row in rows], dtype=np.float64),
            hi=np.array([row.hi for row in rows], dtype=np.float64),
            lb=np.array([v.lb for v in self.variables], dtype=np.float64),
            ub=np.array([v.ub for v in self.variables], dtype=np.float64),
            integrality=np.array(
                [v.integer for v in self.variables], dtype=np.uint8
            ),
        )
        self._check_numbers(arrays)
        return arrays

    def _check_numbers(self, arrays: Arrays) -> None:
        """Raise on the first row or variable :meth:`arrays` rejects."""
        data, _, indptr = arrays.a
        bad_rows = np.isnan(arrays.lo) | np.isnan(arrays.hi)
        if bad_rows.any():
            row = self.rows[int(np.argmax(bad_rows))]
            raise ValueError(
                f"row {row.name!r}: NaN bound (lo {row.lo}, hi {row.hi})"
            )
        bad_coeffs = ~np.isfinite(data)
        if bad_coeffs.any():
            at = int(np.argmax(bad_coeffs))
            row = self.rows[int(np.searchsorted(indptr, at, side="right")) - 1]
            raise ValueError(
                f"row {row.name!r}: non-finite coefficient {data[at]}"
            )
        bad_bounds = np.isnan(arrays.lb) | np.isnan(arrays.ub)
        if bad_bounds.any():
            var = self.variables[int(np.argmax(bad_bounds))]
            raise ValueError(
                f"variable {var.name!r}: NaN bound (lb {var.lb}, ub {var.ub})"
            )
        bad_costs = ~np.isfinite(arrays.c)
        if bad_costs.any():
            var = self.variables[int(np.argmax(bad_costs))]
            raise ValueError(
                f"variable {var.name!r}: non-finite objective coefficient "
                f"{arrays.c[var.index]}"
            )

    def solve(self) -> Solution:
        """Solve to optimality with HiGHS."""
        from repro.milp.scipy_backend import solve_with_scipy

        return solve_with_scipy(self)

    def __repr__(self) -> str:
        return (
            f"Model({self.name or 'unnamed'}: {len(self.variables)} vars, "
            f"{len(self.rows)} rows)"
        )
