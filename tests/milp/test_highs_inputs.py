"""The arrays the MILP resource manager hands to HiGHS, pinned by digest.

``fixtures/highs-inputs-v1.json`` holds one sha256 per model that
:mod:`repro.milp.scipy_backend` passes to HiGHS while ``milp`` +
``oracle`` replays the ``sim-vt-milp`` benchmark inputs (the VT group
at ``HarnessScale(16, 12, master_seed=0)``).  Equal arrays make equal
solves, so any refactor of how the model is built must leave every
digest unchanged.  The fixture was written once, before the model
builder was rewritten::

    PYTHONPATH=src python tests/milp/test_highs_inputs.py --write

Never regenerate it to make this test pass: a changed digest means the
solver now sees a different model.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "highs-inputs-v1.json"

#: The options every solve must pass to HiGHS.  HiGHS's own default gap
#: is 1e-4, so the gap entry is part of the contract, and so is the
#: feasibility-jump switch (on by default, a fixed cost on every model).
HIGHS_OPTIONS = {
    "mip_rel_gap": 0.0,
    "presolve": False,
    "mip_feasibility_tolerance": 1e-9,
    "mip_heuristic_run_feasibility_jump": False,
}

#: :data:`HIGHS_OPTIONS` as HiGHS's own ``setOptionValue`` takes them:
#: presolve is the string ``"off"``, and console logging is off, as
#: ``scipy.optimize.milp(options={"disp": False})`` always set it.
HIGHS_FORM = {"log_to_console": False, **HIGHS_OPTIONS, "presolve": "off"}


def typed(options: dict) -> dict:
    """``options`` with each value's type: HiGHS reads ``False`` and
    ``0.0`` as different option types, while Python compares them
    equal."""
    return {key: (type(value), value) for key, value in options.items()}


def _floats(values, size: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(values, dtype=np.float64), (size,)) + 0.0


def canonical_digest(c, constraints, bounds, integrality) -> str:
    """sha256 of one model's arrays, given as :func:`scipy.optimize.milp`
    takes them, in a canonical form.

    ``A`` becomes CSC with sorted indices and int64 index arrays, and
    every float array gets ``+ 0.0``, which folds ``-0.0`` into ``0.0``
    (the sign of a zero bound or coefficient does not change a solve).
    """
    from scipy.sparse import csc_array

    n = len(c)
    if constraints:
        (constraint,) = constraints
        matrix = csc_array(constraint.A)
        lo, hi = constraint.lb, constraint.ub
    else:
        matrix = csc_array((0, n))
        lo = hi = np.empty(0)
    matrix.sort_indices()
    parts = {
        "c": np.asarray(c, dtype=np.float64) + 0.0,
        "indptr": np.asarray(matrix.indptr, dtype=np.int64),
        "indices": np.asarray(matrix.indices, dtype=np.int64),
        "data": np.asarray(matrix.data, dtype=np.float64) + 0.0,
        "shape": np.asarray(matrix.shape, dtype=np.int64),
        "lo": _floats(lo, matrix.shape[0]),
        "hi": _floats(hi, matrix.shape[0]),
        "lb": _floats(bounds.lb, n),
        "ub": _floats(bounds.ub, n),
        "integrality": np.asarray(integrality, dtype=np.uint8),
    }
    digest = hashlib.sha256()
    for name, array in parts.items():
        digest.update(name.encode())
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def replay() -> tuple[list[str], list[dict]]:
    """Digests and options of every HiGHS call over the benchmark inputs."""
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.sparse import csc_array

    from repro import simulate
    from repro.experiments.common import standard_platform, standard_traces
    from repro.experiments.config import HarnessScale
    from repro.milp import scipy_backend
    from repro.workload.tracegen import DeadlineGroup

    digests: list[str] = []
    options: list[dict] = []
    original = scipy_backend._Highs

    class Spy(original):
        def __init__(self):
            super().__init__()
            options.append({})

        def setOptionValue(self, key, value):
            options[-1][key] = value
            return super().setOptionValue(key, value)

        def passModel(self, lp):
            matrix = lp.a_matrix_
            constraints = []
            if lp.num_row_:
                a = csc_array(
                    (matrix.value_, matrix.index_, matrix.start_),
                    shape=(lp.num_row_, lp.num_col_),
                )
                constraints.append(
                    LinearConstraint(a, lp.row_lower_, lp.row_upper_)
                )
            digests.append(
                canonical_digest(
                    lp.col_cost_,
                    constraints,
                    Bounds(lp.col_lower_, lp.col_upper_),
                    [int(kind) for kind in lp.integrality_],
                )
            )
            return super().passModel(lp)

    platform = standard_platform()
    traces = standard_traces(
        DeadlineGroup.VT, HarnessScale(16, 12, master_seed=0)
    )
    scipy_backend._Highs = Spy
    try:
        for trace in traces:
            simulate(trace, platform, "milp", "oracle")
    finally:
        scipy_backend._Highs = original
    return digests, options


def test_highs_sees_the_pinned_models():
    expected = json.loads(FIXTURE.read_text())
    digests, options = replay()
    assert len(digests) == expected["models"] == 210
    mismatched = [
        i
        for i, (got, want) in enumerate(
            zip(digests, expected["digests"], strict=True)
        )
        if got != want
    ]
    assert not mismatched, f"models whose HiGHS inputs changed: {mismatched}"
    assert all(typed(seen) == typed(HIGHS_FORM) for seen in options)


def test_backend_sets_the_contract_options():
    from repro.milp import scipy_backend

    assert typed(dict(scipy_backend._OPTIONS)) == typed(HIGHS_FORM)
    assert scipy_backend._OPTIONS[0] == ("log_to_console", False)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    found, _ = replay()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(
            {
                "inputs": "standard_traces(VT, HarnessScale(16, 12, "
                "master_seed=0)), milp + oracle",
                "models": len(found),
                "digests": found,
            },
            indent=1,
        )
        + "\n"
    )
