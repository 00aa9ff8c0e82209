"""Golden-trace regression suite.

Replays the three committed fixed-seed traces through every golden
strategy x predictor pair and compares the full behavioural digest
(admissions, bit-exact energies, execution-span hash) against
``digests.json``.  Any hot-path change that shifts observable behaviour
— even by one ULP of energy — fails here.  Digests may only be
regenerated for *intentional* semantic changes (see ``regen.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.workload.trace import Trace

from tests.golden.digest import GOLDEN_PAIRS, pair_key, result_digest

HERE = Path(__file__).resolve().parent

with (HERE / "digests.json").open() as fh:
    DIGESTS = json.load(fh)

TRACE_STEMS = tuple(sorted(DIGESTS))


def test_golden_fixtures_present():
    """Every digested trace file is committed alongside the digests."""
    assert TRACE_STEMS == ("lt_s0", "vt_s0", "vt_s1")
    for stem in TRACE_STEMS:
        assert (HERE / f"{stem}.json").is_file(), f"missing {stem}.json"
        assert set(DIGESTS[stem]) == {
            pair_key(strategy, predictor)
            for strategy, predictor in GOLDEN_PAIRS
        }


# The "-python" id suffix names the reference Python event loop, the one
# simulation path the digests are replayed on.
@pytest.mark.parametrize(
    "stem", TRACE_STEMS, ids=[f"{stem}-python" for stem in TRACE_STEMS]
)
@pytest.mark.parametrize(
    "strategy,predictor",
    GOLDEN_PAIRS,
    ids=[pair_key(s, p) for s, p in GOLDEN_PAIRS],
)
def test_golden_digest(stem: str, strategy: str, predictor: str | None):
    trace = Trace.load(HERE / f"{stem}.json")
    expected = DIGESTS[stem][pair_key(strategy, predictor)]
    assert result_digest(trace, strategy, predictor) == expected
