"""A small mixed-integer linear programming layer.

The paper's exact resource manager is a MILP (Sec. 4.2).  This package
provides everything needed to express and solve it without external
modelling libraries:

* :class:`~repro.milp.model.Model` — variables, linear expressions,
  constraints (with operator overloading) and big-M helpers;
* :mod:`~repro.milp.scipy_backend` — solves a model with scipy's bundled
  HiGHS solver;
* :mod:`~repro.milp.bnb` — a pure-Python branch-and-bound solver over the
  LP relaxation, used to cross-validate the HiGHS results in tests.

The package exports only the modelling layer.  :meth:`Model.solve
<repro.milp.model.Model.solve>` imports the chosen backend on first use,
so importing :mod:`repro.milp` (and every resource manager built on it)
does not load scipy until a MILP is actually solved.  Import the backend
functions from their submodules.
"""

from repro.milp.model import (
    Constraint,
    LinExpr,
    Model,
    Solution,
    SolveStatus,
    Variable,
)

__all__ = [
    "Model",
    "Variable",
    "LinExpr",
    "Constraint",
    "Solution",
    "SolveStatus",
]
