"""A small mixed-integer linear programming layer.

The paper's exact resource manager is a MILP (Sec. 4.2).  This package
holds it as a row store and solves it with HiGHS, without external
modelling libraries:

* :class:`~repro.milp.model.Model` — variables with bounds and
  integrality, rows ``lo <= sum(coeff * x) <= hi``, a minimisation
  objective, and :meth:`~repro.milp.model.Model.arrays`, the one array
  form that is solved;
* :mod:`~repro.milp.scipy_backend` — solves a model with scipy's bundled
  HiGHS solver, the one solve path.

The package exports only the row store.  :meth:`Model.solve
<repro.milp.model.Model.solve>` imports the solver module on first use,
so importing :mod:`repro.milp` (and every resource manager built on it)
does not load scipy until a MILP is actually solved.
"""

from repro.milp.model import (
    Arrays,
    Model,
    Row,
    Solution,
    SolveStatus,
    Variable,
)

__all__ = [
    "Model",
    "Variable",
    "Row",
    "Arrays",
    "Solution",
    "SolveStatus",
]
