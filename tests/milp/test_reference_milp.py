"""The direct HiGHS solve against the same solve through ``scipy.optimize.milp``.

:func:`~repro.milp.scipy_backend.solve_with_scipy` fills HiGHS's model
itself instead of calling :func:`scipy.optimize.milp`
(:mod:`tests.milp.reference_milp`).  Every model the MILP resource
manager builds while replaying the pinned trace sets is solved both
ways; both must report the same status, a bit-equal objective and
bit-equal values, and the column-wise matrix handed to HiGHS must be
exactly the one ``scipy.sparse`` would build.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.milp import scipy_backend
from tests.milp.reference_milp import solve_with_milp
from tests.milp.test_milp_answers import REPLAYS


def _bits(solution) -> tuple:
    return (
        solution.status,
        solution.objective.hex(),
        [value.hex() for value in solution.values],
    )


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_direct_highs_matches_scipy_milp(monkeypatch, name):
    from repro import simulate
    from repro.experiments.common import standard_platform, standard_traces
    from repro.experiments.config import HarnessScale
    from repro.workload.tracegen import DeadlineGroup

    group, scale = REPLAYS[name]
    direct = scipy_backend.solve_with_scipy
    solved: list[tuple] = []
    differing: list[int] = []

    def both(model):
        arrays = model.arrays()
        shape = (len(arrays.lo), len(arrays.c))
        expected = csr_matrix(arrays.a, shape=shape).tocsc()
        start, index, value = scipy_backend._colwise(arrays.a, shape[1])
        assert np.array_equal(start, expected.indptr)
        assert np.array_equal(index, expected.indices)
        assert np.array_equal(value, expected.data)
        solution = direct(model)
        got, want = _bits(solution), _bits(solve_with_milp(model))
        if got != want:
            differing.append(len(solved))
        solved.append(got)
        return solution

    monkeypatch.setattr(scipy_backend, "solve_with_scipy", both)
    platform = standard_platform()
    for trace in standard_traces(DeadlineGroup[group], HarnessScale(*scale)):
        simulate(trace, platform, "milp", "oracle")
    assert solved
    assert not differing, f"models solved differently: {differing}"
