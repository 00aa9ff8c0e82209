"""The MILP resource manager's answers, pinned per activation.

``fixtures/milp-answers-v1.json`` holds, for every
:meth:`MilpResourceManager.solve` call made while ``milp`` + ``oracle``
replays two trace sets, the triple ``(feasible, sorted mapping,
energy.hex())``:

* ``vt`` — the ``sim-vt-milp`` benchmark inputs, the VT group at
  ``HarnessScale(16, 12, master_seed=0)`` (210 solves);
* ``lt`` — the LT group at ``HarnessScale(2, 40, master_seed=0)``,
  whose contexts are large enough to need branch-and-bound.

:mod:`tests.milp.test_highs_inputs` pins the *model* HiGHS receives;
this test pins what the resource manager *decides*.  A change to the
solver's options or to the formulation (a tighter big-M, say) may
change the model, but every activation must still return the same
feasibility, the same mapping and a bit-equal energy.  The fixture was
written once, before any such change::

    PYTHONPATH=src python tests/milp/test_milp_answers.py --write

Never regenerate it to make this test pass: a changed answer means the
MILP now decides differently, which is a behaviour change, not a
refactor.  The fixture was written with scipy 1.17.1 (HiGHS 1.12);
another HiGHS release may break an exact energy tie between two
mappings differently, which this test would show.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "milp-answers-v1.json"

#: ``name -> (deadline group, HarnessScale arguments)`` of each replay.
REPLAYS = {
    "vt": ("VT", (16, 12, 0)),
    "lt": ("LT", (2, 40, 0)),
}


def replay(name: str) -> list[list]:
    """``[feasible, [[job, resource], ...], energy hex]`` per solve."""
    from repro import simulate
    from repro.core.milp_rm import MilpResourceManager
    from repro.experiments.common import standard_platform, standard_traces
    from repro.experiments.config import HarnessScale
    from repro.workload.tracegen import DeadlineGroup

    group, (n_traces, n_requests, seed) = REPLAYS[name]
    answers: list[list] = []
    original = MilpResourceManager.solve

    def spy(self, context):
        decision = original(self, context)
        answers.append(
            [
                decision.feasible,
                sorted([job, res] for job, res in decision.mapping.items()),
                float(decision.energy).hex(),
            ]
        )
        return decision

    platform = standard_platform()
    traces = standard_traces(
        DeadlineGroup[group], HarnessScale(n_traces, n_requests, seed)
    )
    MilpResourceManager.solve = spy
    try:
        for trace in traces:
            simulate(trace, platform, "milp", "oracle")
    finally:
        MilpResourceManager.solve = original
    return answers


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_milp_answers_match_the_pinned_fixture(name):
    expected = json.loads(FIXTURE.read_text())[name]
    got = replay(name)
    assert len(got) == expected["solves"]
    mismatched = [
        i
        for i, (answer, want) in enumerate(
            zip(got, expected["answers"], strict=True)
        )
        if answer != want
    ]
    assert not mismatched, f"{name} activations answered differently: {mismatched}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    entries = []
    for key, (group, scale) in REPLAYS.items():
        found = replay(key)
        inputs = f"standard_traces({group}, HarnessScale{scale}), milp + oracle"
        answers = ",\n".join("  " + json.dumps(answer) for answer in found)
        entries.append(
            f' "{key}": {{"inputs": {json.dumps(inputs)}, '
            f'"solves": {len(found)}, "answers": [\n{answers}\n ]}}'
        )
    FIXTURE.write_text("{\n" + ",\n".join(entries) + "\n}\n")
