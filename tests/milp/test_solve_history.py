"""MILP decisions do not depend on what the process solved before.

The benchmark replays its traces many times in one process with one
strategy object, and checks every timed pass against a verified pass.
Anything that carries solver state from one solve to the next (a shared
solver object, a warm start, a cache) could make a trace's decisions
depend on which traces ran before it.  Here trace set A is replayed,
then B, then A again; both A passes must equal a fresh, verified run.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro import simulate
from repro.core.milp_rm import MilpResourceManager
from repro.experiments.common import standard_platform, standard_traces
from repro.experiments.config import HarnessScale
from repro.registry import resolve_predictor
from repro.workload.tracegen import DeadlineGroup
from tests.milp.reference_bnb import solving_with_bnb

SOLVERS = {"scipy": nullcontext, "bnb": solving_with_bnb}


def _fingerprint(result) -> tuple:
    return (
        tuple(result.accepted),
        tuple(result.rejected),
        result.total_energy.hex(),
    )


@pytest.mark.parametrize("backend", ["scipy", "bnb"])
def test_milp_decisions_do_not_depend_on_solve_history(backend):
    with SOLVERS[backend]():
        platform = standard_platform()
        a = standard_traces(DeadlineGroup.VT, HarnessScale(2, 12, master_seed=0))
        b = standard_traces(DeadlineGroup.VT, HarnessScale(2, 12, master_seed=3))
        strategy = MilpResourceManager()
        predictor = resolve_predictor("oracle")

        def replay(traces):
            return [
                _fingerprint(simulate(trace, platform, strategy, predictor))
                for trace in traces
            ]

        first = replay(a)
        replay(b)
        again = replay(a)
        fresh = [
            _fingerprint(
                simulate(
                    trace,
                    platform,
                    MilpResourceManager(),
                    "oracle",
                    verify=True,
                )
            )
            for trace in a
        ]
        assert first == again == fresh
        assert any(accepted for accepted, _, _ in fresh)
